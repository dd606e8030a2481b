package lp

import "math"

// basisRep abstracts the factorized representation of the simplex basis
// inverse. Two implementations exist:
//
//   - denseRep keeps an explicit dense B⁻¹ updated by elementary row
//     operations — the cold crash's choice for small bases;
//   - pfiRep keeps B⁻¹ in product form (an eta file) with sparsity-aware
//     FTRAN/BTRAN and periodic reinversion — the classic sparse-simplex
//     scheme, orders of magnitude faster on the large, very sparse bases
//     the FFC formulations produce.
//
// The representation may permute the basis-position → row assignment during
// refactor (st.basis is reordered); callers recompute xB and duals after.
type basisRep interface {
	// refactor rebuilds the representation from st's current basis
	// columns. May reorder st.basis (the position↔row assignment is
	// bookkeeping, not semantics).
	refactor(st *simplexState)
	// ftran computes w = B⁻¹·a into the zeroed dense vector w, where a is
	// given sparsely. Returns the nonzero pattern of w, or nil meaning
	// "treat w as dense". The pattern may be the representation's own
	// buffer, overwritten by the next ftran: optimize, dualSimplex and
	// refactor each finish with it before their next ftran.
	ftran(aIdx []int32, aCoef []float64, w []float64) []int32
	// ftranDense computes x = B⁻¹·x in place for dense x.
	ftranDense(x []float64)
	// btranUnit computes y = e_rᵀ·B⁻¹ into the zeroed dense vector y.
	btranUnit(r int, y []float64)
	// btranDense computes y = yᵀ·B⁻¹ in place for dense y.
	btranDense(y []float64)
	// pivot applies a basis change: the entering column's FTRAN result w
	// (with nonzero pattern pat, nil = dense) pivots row r.
	pivot(r int, w []float64, pat []int32)
	// shouldRefactor reports whether accumulated updates warrant a
	// rebuild.
	shouldRefactor() bool
	// nnzCount reports the stored size of the representation — eta-file
	// nonzeros for the product form, m² for the dense inverse. It is the
	// fill-in statistic surfaced in SolveStats.BasisNnz.
	nnzCount() int
}

// pfiThreshold: cold-crash bases at least this large use the product form.
const pfiThreshold = 260

// newBasisRep returns an empty representation for the cold crash's m-row
// basis (refactoring warm seats are product form); force is Model.forceRep.
func newBasisRep(m int, force int8) basisRep {
	if force == 2 || (force == 0 && m >= pfiThreshold) {
		return newPfiRep(m)
	}
	return newDenseRep(m)
}

// ---------------------------------------------------------------- dense --

// denseRep is the explicit dense inverse.
type denseRep struct {
	m       int
	binv    []float64 // row-major m×m
	updates int
}

func newDenseRep(m int) *denseRep {
	return &denseRep{m: m, binv: make([]float64, m*m)}
}

// initDiagonal sets B⁻¹ for a diagonal starting basis with the given
// diagonal coefficients (the slack/artificial basis).
func (d *denseRep) initDiagonal(diag []float64) {
	for i := range d.binv {
		d.binv[i] = 0
	}
	for i := 0; i < d.m; i++ {
		d.binv[i*d.m+i] = 1 / diag[i]
	}
	d.updates = 0
}

func (d *denseRep) refactor(st *simplexState) {
	m := d.m
	b := make([]float64, m*m)
	for i := 0; i < m; i++ {
		j := st.basis[i]
		for k, r := range st.colIdx[j] {
			b[int(r)*m+i] = st.colCoef[j][k]
		}
	}
	invertInPlace(b, m)
	d.binv = b
	d.updates = 0
}

func (d *denseRep) ftran(aIdx []int32, aCoef []float64, w []float64) []int32 {
	m := d.m
	for k, r := range aIdx {
		a := aCoef[k]
		if a == 0 {
			continue
		}
		col := int(r)
		for i := 0; i < m; i++ {
			w[i] += a * d.binv[i*m+col]
		}
	}
	return nil
}

func (d *denseRep) ftranDense(x []float64) {
	m := d.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := d.binv[i*m : i*m+m]
		var acc float64
		for k := 0; k < m; k++ {
			acc += row[k] * x[k]
		}
		out[i] = acc
	}
	copy(x, out)
}

func (d *denseRep) btranUnit(r int, y []float64) {
	copy(y, d.binv[r*d.m:(r+1)*d.m])
}

func (d *denseRep) btranDense(y []float64) {
	m := d.m
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		ci := y[i]
		if ci == 0 {
			continue
		}
		row := d.binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			out[k] += ci * row[k]
		}
	}
	copy(y, out)
}

func (d *denseRep) pivot(r int, w []float64, _ []int32) {
	m := d.m
	piv := w[r]
	invPiv := 1 / piv
	rowR := d.binv[r*m : r*m+m]
	for k := 0; k < m; k++ {
		rowR[k] *= invPiv
	}
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		ri := d.binv[i*m : i*m+m]
		for k := 0; k < m; k++ {
			ri[k] -= f * rowR[k]
		}
	}
	d.updates++
}

func (d *denseRep) shouldRefactor() bool { return d.updates >= denseMaxUpdates }

func (d *denseRep) nnzCount() int { return d.m * d.m }

// ------------------------------------------------------------------ pfi --

// eta is one elementary column transformation: the identity with column r
// replaced by the pivot piv at row r and the off-pivot entries
// pfiRep.idx[lo:hi] / pfiRep.vals[lo:hi].
type eta struct {
	r      int32
	lo, hi int
	piv    float64
}

// pfiRep is the product-form inverse: B = E₁·E₂·…·E_k, so
// B⁻¹x = E_k⁻¹(…(E₁⁻¹x)). Reinversion rebuilds the chain from the basis
// columns, choosing a sparsity-friendly pivot order. The etas' off-pivot
// entries lie back to back in one arena (idx, vals), each eta's in the order
// its FTRAN first touched them; BTRAN sums its dot products in that order.
type pfiRep struct {
	m        int
	etas     []eta
	idx      []int32   // off-pivot rows of every eta, eta after eta
	vals     []float64 // their values
	nnz      int       // stored nonzeros: the arena plus one per pivot entry
	baseEtas int       // chain length after the last refactor
	baseNnz  int       // stored nonzeros after the last refactor
	mark     []bool
	pat      []int32
}

func newPfiRep(m int) *pfiRep {
	return &pfiRep{m: m, mark: make([]bool, m), pat: make([]int32, 0, m)}
}

func (p *pfiRep) ftran(aIdx []int32, aCoef []float64, w []float64) []int32 {
	pat, mark := p.pat[:0], p.mark
	for k, r := range aIdx {
		if aCoef[k] == 0 {
			continue
		}
		w[r] += aCoef[k]
		if !mark[r] {
			mark[r] = true
			pat = append(pat, r)
		}
	}
	for _, e := range p.etas {
		xr := w[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.piv
		w[e.r] = xr
		idx, vals := p.idx[e.lo:e.hi], p.vals[e.lo:e.hi]
		vals = vals[:len(idx)]
		for k, i := range idx {
			w[i] = w[i] - vals[k]*xr
			if !mark[i] {
				mark[i] = true
				pat = append(pat, i)
			}
		}
	}
	for _, i := range pat {
		mark[i] = false
	}
	p.pat = pat
	return pat
}

func (p *pfiRep) ftranDense(x []float64) {
	for _, e := range p.etas {
		xr := x[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.piv
		x[e.r] = xr
		idx, vals := p.idx[e.lo:e.hi], p.vals[e.lo:e.hi]
		vals = vals[:len(idx)]
		for k, i := range idx {
			x[i] = x[i] - vals[k]*xr
		}
	}
}

func (p *pfiRep) btranUnit(r int, y []float64) {
	y[r] = 1
	p.btranDense(y)
}

func (p *pfiRep) btranDense(y []float64) {
	// y' = y·B⁻¹ = ((y·E_k⁻¹)·…)·E₁⁻¹, applied last-to-first. For one
	// eta: z_j = y_j (j≠r), z_r = (y_r − Σ_{i≠r} y_i v_i)/v_r.
	for i := len(p.etas) - 1; i >= 0; i-- {
		e := &p.etas[i]
		idx, vals := p.idx[e.lo:e.hi], p.vals[e.lo:e.hi]
		vals = vals[:len(idx)]
		var dot float64
		for k, j := range idx {
			dot += y[j] * vals[k]
		}
		y[e.r] = (y[e.r] - dot) / e.piv
	}
}

// pivot appends the eta of w pivoting row r: pat's nonzero off-pivot
// entries, in pat's order. The pivot entry counts as one stored nonzero per
// listing of r in pat, and at least one (refactor's singular path can list
// r twice).
func (p *pfiRep) pivot(r int, w []float64, pat []int32) {
	lo, pivots := len(p.idx), 0
	for _, i := range pat {
		if int(i) == r {
			pivots++
		} else if v := w[i]; v != 0 {
			p.idx = append(p.idx, i)
			p.vals = append(p.vals, v)
		}
	}
	p.etas = append(p.etas, eta{r: int32(r), lo: lo, hi: len(p.idx), piv: w[r]})
	p.nnz += len(p.idx) - lo + max(pivots, 1)
}

func (p *pfiRep) shouldRefactor() bool {
	appended := len(p.etas) - p.baseEtas
	if appended == 0 {
		return false
	}
	// Only reinvert when it plausibly helps: bases whose factorization is
	// inherently dense (baseNnz high) must not refactor on every pivot.
	return appended >= pfiMaxEtas || p.nnz > 2*p.baseNnz+pfiFillPerRow*p.m+pfiFillSlack
}

func (p *pfiRep) nnzCount() int { return p.nnz }

// refactor reinverts: it rebuilds the eta chain from the current basis
// columns in a structurally chosen order, with pre-assigned pivot rows
// where the structure dictates them. st.basis is reordered to match the
// chosen pivot rows.
//
// The order matters enormously: a column whose nonzeros all lie in rows
// not yet pivoted produces an eta identical to the column (zero fill), so
// the triangular part of the basis — which dominates in network LPs — is
// peeled first by singleton elimination; only the remaining "bump", taken
// in fewest-remaining-rows order with partial pivoting on |w|, incurs fill.
func (p *pfiRep) refactor(st *simplexState) {
	m := p.m
	p.etas, p.idx, p.vals, p.nnz = p.etas[:0], p.idx[:0], p.vals[:0], 0

	order, pivRow := triangularOrder(st)

	pivoted := make([]bool, m)
	newBasis := make([]int, m)
	w := make([]float64, m)
	for k, v := range order {
		// w = (current chain)⁻¹ · A_v.
		pat := p.ftran(st.colIdx[v], st.colCoef[v], w)
		best := pivRow[k]
		if best >= 0 && (pivoted[best] || math.Abs(w[best]) <= pivotTol) {
			best = -1 // structural choice invalidated numerically
		}
		if best < 0 {
			bestAbs := pivotTol
			for _, i := range pat {
				if pivoted[i] {
					continue
				}
				if a := math.Abs(w[i]); a > bestAbs {
					best, bestAbs = int(i), a
				}
			}
		}
		if best < 0 {
			// Numerically singular column: grab any free row with a tiny
			// pivot so the factorization stays formally invertible; the
			// next refactor (or Phase I) cleans up.
			for i := 0; i < m; i++ {
				if !pivoted[i] {
					best = i
					break
				}
			}
			w[best] += singularPivot
			pat = append(pat, int32(best))
		}
		pivoted[best] = true
		newBasis[best] = v
		p.pivot(best, w, pat)
		// Zero w along its pattern for reuse.
		for _, i := range pat {
			w[i] = 0
		}
		w[best] = 0
	}
	copy(st.basis, newBasis)
	p.baseEtas, p.baseNnz = len(p.etas), p.nnz
}

// triangularOrder peels column and row singletons off the basis pattern,
// breaking stalls with the bump column of fewest remaining rows. It returns
// the column processing order and, per position, the structural pivot row
// (-1 for a bump column, whose row is chosen numerically).
func triangularOrder(st *simplexState) (order []int, pivRow []int) {
	m := st.m
	// Column patterns restricted to basis columns.
	cols := st.basis
	colRows := make([][]int32, m)
	colCnt := make([]int, m) // remaining-nnz per basis position
	rowCnt := make([]int, m)
	nnz := 0
	for ci, v := range cols {
		colRows[ci] = st.colIdx[v]
		colCnt[ci] = len(st.colIdx[v])
		nnz += colCnt[ci]
		for _, r := range st.colIdx[v] {
			rowCnt[r]++
		}
	}
	// Row patterns as a counted CSR: each row's list is carved from one
	// array at its count, then filled in ascending position order.
	rowCols := make([][]int32, m)
	all := make([]int32, nnz)
	for r, c := range rowCnt {
		rowCols[r], all = all[:0:c], all[c:]
	}
	for ci, rows := range colRows {
		for _, r := range rows {
			rowCols[r] = append(rowCols[r], int32(ci))
		}
	}
	colDone := make([]bool, m)
	rowDone := make([]bool, m)
	order = make([]int, 0, m)
	pivRow = make([]int, 0, m)

	// Queues of current singletons.
	var colQ, rowQ []int32
	for ci := 0; ci < m; ci++ {
		if colCnt[ci] == 1 {
			colQ = append(colQ, int32(ci))
		}
	}
	for r := 0; r < m; r++ {
		if rowCnt[r] == 1 {
			rowQ = append(rowQ, int32(r))
		}
	}
	eliminate := func(ci int, r int) {
		colDone[ci] = true
		rowDone[r] = true
		order = append(order, cols[ci])
		pivRow = append(pivRow, r)
		for _, rr := range colRows[ci] {
			if !rowDone[rr] {
				rowCnt[rr]--
				if rowCnt[rr] == 1 {
					rowQ = append(rowQ, rr)
				}
			}
		}
		for _, cc := range rowCols[r] {
			if !colDone[cc] {
				colCnt[cc]--
				if colCnt[cc] == 1 {
					colQ = append(colQ, cc)
				}
			}
		}
	}
	remaining := m
	for remaining > 0 {
		progressed := false
		for len(colQ) > 0 {
			ci := int(colQ[len(colQ)-1])
			colQ = colQ[:len(colQ)-1]
			if colDone[ci] || colCnt[ci] != 1 {
				continue
			}
			for _, r := range colRows[ci] {
				if !rowDone[r] {
					eliminate(ci, int(r))
					remaining--
					progressed = true
					break
				}
			}
		}
		for len(rowQ) > 0 {
			r := int(rowQ[len(rowQ)-1])
			rowQ = rowQ[:len(rowQ)-1]
			if rowDone[r] || rowCnt[r] != 1 {
				continue
			}
			for _, ci := range rowCols[r] {
				if !colDone[ci] {
					eliminate(int(ci), r)
					remaining--
					progressed = true
					break
				}
			}
		}
		if !progressed {
			// Bump: take the remaining column with the fewest remaining
			// rows; its pivot row is chosen numerically during FTRAN.
			best, bestCnt := -1, m+1
			for ci := 0; ci < m; ci++ {
				if !colDone[ci] && colCnt[ci] < bestCnt {
					best, bestCnt = ci, colCnt[ci]
				}
			}
			if best < 0 {
				break
			}
			colDone[best] = true
			order = append(order, cols[best])
			pivRow = append(pivRow, -1)
			remaining--
			for _, rr := range colRows[best] {
				if !rowDone[rr] {
					rowCnt[rr]--
					if rowCnt[rr] == 1 {
						rowQ = append(rowQ, rr)
					}
				}
			}
			// Note: the numerically chosen row is not known yet, so row
			// eliminations for it are skipped; subsequent counts are a
			// heuristic, which is all they need to be.
		}
	}
	return order, pivRow
}
