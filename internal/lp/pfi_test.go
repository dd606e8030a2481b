package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPFIAgainstEnumeration re-runs the vertex-enumeration cross-check with
// the product-form inverse forced on, exercising eta-file FTRAN/BTRAN,
// reinversion, and basis permutation on small problems.
func TestPFIAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(3)
		k := 1 + rng.Intn(4)
		p := &refProblem{n: n, maximize: rng.Intn(2) == 0}
		for j := 0; j < n; j++ {
			lo := float64(rng.Intn(7)) - 3
			hi := lo + float64(rng.Intn(8))
			p.lo = append(p.lo, lo)
			p.hi = append(p.hi, hi)
			p.obj = append(p.obj, float64(rng.Intn(11)-5))
		}
		for i := 0; i < k; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			p.rows = append(p.rows, row)
			p.sense = append(p.sense, Sense(rng.Intn(3)))
			p.rhs = append(p.rhs, float64(rng.Intn(21)-10))
		}
		want, _, feasible := refSolve(p)
		m, _ := p.toModel()
		m.forceRep = 2 // force PFI
		sol, err := m.Solve()
		if !feasible {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: reference infeasible, PFI simplex %v", trial, sol.Status)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: reference obj %v but PFI simplex failed: %v", trial, want, err)
		}
		if math.Abs(sol.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: PFI obj %v, reference %v", trial, sol.Objective, want)
		}
	}
}

// TestPFIMatchesDenseOnMediumLPs solves identical medium problems with both
// representations and requires matching optima.
func TestPFIMatchesDenseOnMediumLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		build := func() *Model {
			r := rand.New(rand.NewSource(int64(1000 + trial)))
			n, k := 120, 90
			m := NewModel()
			vars := make([]Var, n)
			for j := range vars {
				vars[j] = m.NewVar("v", 0, 1+r.Float64()*9)
			}
			for i := 0; i < k; i++ {
				e := NewExpr()
				for c := 0; c < 5; c++ {
					e.Add(0.2+r.Float64()*2, vars[r.Intn(n)])
				}
				if i%4 == 0 {
					m.AddGE(e, r.Float64()*2)
				} else {
					m.AddLE(e, 4+r.Float64()*25)
				}
			}
			obj := NewExpr()
			for _, v := range vars {
				obj.Add(r.Float64(), v)
			}
			m.Maximize(obj)
			return m
		}
		md := build()
		md.forceRep = 1
		sd, err := md.Solve()
		if err != nil {
			t.Fatalf("trial %d dense: %v", trial, err)
		}
		mp := build()
		mp.forceRep = 2
		sp, err := mp.Solve()
		if err != nil {
			t.Fatalf("trial %d pfi: %v", trial, err)
		}
		if math.Abs(sd.Objective-sp.Objective) > 1e-5*math.Max(1, math.Abs(sd.Objective)) {
			t.Fatalf("trial %d: dense %v != pfi %v", trial, sd.Objective, sp.Objective)
		}
		_ = rng
	}
}

// TestPFIDualsMatchDense: shadow prices must agree across representations.
func TestPFIDualsMatchDense(t *testing.T) {
	build := func(force int8) (*Solution, []int) {
		m := NewModel()
		x := m.NewVar("x", 0, Inf)
		y := m.NewVar("y", 0, Inf)
		r1 := m.AddLE(NewExpr().Add(2, x).Add(1, y), 10)
		r2 := m.AddLE(NewExpr().Add(1, x).Add(2, y), 10)
		m.Maximize(NewExpr().Add(1, x).Add(1, y))
		m.forceRep = force
		sol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return sol, []int{r1, r2}
	}
	sd, rows := build(1)
	sp, _ := build(2)
	for _, r := range rows {
		if math.Abs(sd.Duals[r]-sp.Duals[r]) > 1e-6 {
			t.Fatalf("row %d duals differ: dense %v pfi %v", r, sd.Duals[r], sp.Duals[r])
		}
	}
}

// TestPFIRefactorPath drives enough pivots to force reinversion (the
// 128-eta trigger) and checks the solution is still exact.
func TestPFIRefactorPath(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, k := 400, 300
	m := NewModel()
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.NewVar("v", 0, 5)
	}
	type rowRec struct {
		e   *Expr
		rhs float64
	}
	var recs []rowRec
	for i := 0; i < k; i++ {
		e := NewExpr()
		for c := 0; c < 4; c++ {
			e.Add(0.5+r.Float64(), vars[r.Intn(n)])
		}
		rhs := 3 + r.Float64()*10
		m.AddLE(e, rhs)
		recs = append(recs, rowRec{e, rhs})
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(0.1+r.Float64(), v)
	}
	m.Maximize(obj)
	m.forceRep = 2
	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Iters < 129 {
		t.Skipf("only %d iterations; refactor path not exercised", sol.Iters)
	}
	for i, rec := range recs {
		if v := sol.Violation(rec.e, LE, rec.rhs); v > 1e-6 {
			t.Fatalf("row %d violated by %v after refactors", i, v)
		}
	}
}

// requireSeatNeverInverts asserts a seat never inverts densely: a seat that
// reused the handle's factorization holds carried, untouched; any other
// warm seat refactored in product form.
func requireSeatNeverInverts(t *testing.T, tag string, s *simplexState, carried basisRep) {
	t.Helper()
	if !s.stats.Warm {
		return
	}
	if s.stats.FactorReused {
		if carried == nil || s.rep != carried {
			t.Fatalf("%s: reused seat holds %T, not the carried factorization", tag, s.rep)
		}
	} else if _, ok := s.rep.(*pfiRep); !ok {
		t.Fatalf("%s: refactoring seat uses %T, want *pfiRep", tag, s.rep)
	}
}

// carriedRep returns the factorization ws still carries, or nil.
func carriedRep(ws *WarmStart) basisRep {
	if f := ws.fact.Load(); f != nil {
		return f.rep
	}
	return nil
}

// TestWarmSeatIsProductFormAtAnySize: a seat never inverts densely. Far
// below pfiThreshold, where the cold crash starts from the dense inverse,
// the handle's first seat onto the unchanged matrix takes that inverse as
// is; a refactoring seat (here a consumed handle) builds product form — its
// BasisNnz counts eta-file nonzeros, not m² — and the re-solve matches the
// cold optimum and the enumerator to 1e-9.
func TestWarmSeatIsProductFormAtAnySize(t *testing.T) {
	const k = 40
	m, xs := dualChain(k)
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	if sol.Stats.BasisNnz != k*k {
		t.Fatalf("cold crash BasisNnz = %d, want the dense inverse's %d", sol.Stats.BasisNnz, k*k)
	}
	for _, x := range xs {
		m.SetBounds(x, 0, 2)
	}
	carried := carriedRep(sol.Warm())
	for seat, wantReused := range []bool{true, false} {
		s := newState(m, sol.Warm(), SolveOpts{})
		if !s.stats.Warm || s.stats.FactorReused != wantReused {
			t.Fatalf("seat %d: Warm %v, FactorReused %v; want a warm seat with FactorReused %v", seat, s.stats.Warm, s.stats.FactorReused, wantReused)
		}
		requireSeatNeverInverts(t, "chain", s, carried)
		carried = nil
	}
	got, err := m.SolveFrom(sol.Warm())
	requireOptimal(t, got, err)
	requireDualPath(t, "chain", got.Stats)
	if st := got.Stats; !st.Warm || st.FactorReused || st.DualIters != k || st.BasisNnz >= k*k {
		t.Fatalf("stats %+v; want a warm re-solve of %d dual pivots on an eta file under %d nonzeros", st, k, k*k)
	}
	cold, coldXs := dualChain(k)
	for _, x := range coldXs {
		cold.SetBounds(x, 0, 2)
	}
	coldSol, err := cold.Solve()
	requireOptimal(t, coldSol, err)
	if !almost(got.Objective, coldSol.Objective, 1e-9) || !almost(got.Objective, 2*k, 1e-9) {
		t.Fatalf("warm objective %g, cold %g, want %d", got.Objective, coldSol.Objective, 2*k)
	}

	rng := rand.New(rand.NewSource(260))
	reused, refactored := 0, 0
	for c := 0; c < 400; c++ {
		p := randomRefProblem(rng)
		m, vars := p.toModel()
		sol, err := m.Solve()
		if err != nil {
			continue
		}
		perturb(p, rng)
		applyMutations(m, vars, p)
		// The first seat takes the carried factorization, the second
		// refactors.
		carried := carriedRep(sol.Warm())
		for seat := 0; seat < 2; seat++ {
			s := newState(m, sol.Warm(), SolveOpts{})
			requireSeatNeverInverts(t, "random", s, carried)
			switch {
			case s.stats.FactorReused:
				reused++
			case s.stats.Warm:
				refactored++
			}
			carried = nil
		}
		warm, warmErr := m.SolveFrom(sol.Warm())
		refObj, _, feasible := refSolve(p)
		if !feasible {
			if warm.Status != Infeasible {
				t.Fatalf("case %d: reference infeasible, warm re-solve %v", c, warm.Status)
			}
			continue
		}
		coldM, _ := p.toModel()
		coldSol, coldErr := coldM.Solve()
		if warmErr != nil || coldErr != nil {
			t.Fatalf("case %d: reference optimum %g, warm err %v, cold err %v", c, refObj, warmErr, coldErr)
		}
		tol := 1e-9 * (1 + math.Abs(refObj))
		if !almost(warm.Objective, refObj, tol) || !almost(warm.Objective, coldSol.Objective, tol) {
			t.Fatalf("case %d: warm %g, cold %g, reference %g", c, warm.Objective, coldSol.Objective, refObj)
		}
	}
	if reused < 100 || refactored < 100 {
		t.Fatalf("%d reused and %d refactored seats; both seats must be exercised", reused, refactored)
	}
}

// TestForceDenseCrashAndFallback: forceRep = 1 still selects the dense
// inverse where the cold crash runs — from scratch, and after abortWarm
// unseats a warm basis — even past pfiThreshold. The carried dense inverse
// is seated as is; a consumed handle refactors in product form.
func TestForceDenseCrashAndFallback(t *testing.T) {
	const k = pfiThreshold + 20
	m, _ := dualChain(k)
	m.forceRep = 1
	if s := newState(m, nil, SolveOpts{}); s.stats.Warm {
		t.Fatal("cold start reported warm")
	} else if _, ok := s.rep.(*denseRep); !ok {
		t.Fatalf("forceRep=1 cold crash uses %T, want *denseRep", s.rep)
	}
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	// y_0 (column 1) ≥ 6 leaves x_0 + y_0 ≤ 5 unsatisfiable: the dual ratio
	// test comes up empty and the solve falls back to the cold crash.
	m.SetBounds(Var(1), 6, 10)
	carried := carriedRep(sol.Warm())
	for seat := 0; seat < 2; seat++ {
		s := newState(m, sol.Warm(), SolveOpts{})
		if !s.stats.Warm || s.stats.FactorReused != (seat == 0) {
			t.Fatalf("seat %d: Warm %v, FactorReused %v", seat, s.stats.Warm, s.stats.FactorReused)
		}
		requireSeatNeverInverts(t, "dense-cold", s, carried)
		if st := s.run(m); st != Infeasible {
			t.Fatalf("seat %d: status %v, want infeasible", seat, st)
		}
		if !s.stats.WarmFellBack || s.stats.FactorReused {
			t.Fatalf("seat %d: infeasible verdict without the cold fallback: %+v", seat, s.stats)
		}
		if _, ok := s.rep.(*denseRep); !ok {
			t.Fatalf("seat %d: forceRep=1 fallback crash uses %T, want *denseRep", seat, s.rep)
		}
		carried = nil
	}
}

func benchLargeSparseLP(b *testing.B, force int8) {
	r := rand.New(rand.NewSource(12))
	n, k := 900, 700
	m := NewModel()
	vars := make([]Var, n)
	for j := range vars {
		vars[j] = m.NewVar("v", 0, 5)
	}
	for i := 0; i < k; i++ {
		e := NewExpr()
		for c := 0; c < 4; c++ {
			e.Add(0.5+r.Float64(), vars[r.Intn(n)])
		}
		m.AddLE(e, 3+r.Float64()*10)
	}
	obj := NewExpr()
	for _, v := range vars {
		obj.Add(0.1+r.Float64(), v)
	}
	m.Maximize(obj)
	m.forceRep = force
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimplexDenseRep vs BenchmarkSimplexPFIRep quantify the
// product-form inverse's advantage on a sparse 700-row basis.
func BenchmarkSimplexDenseRep(b *testing.B) { benchLargeSparseLP(b, 1) }
func BenchmarkSimplexPFIRep(b *testing.B)   { benchLargeSparseLP(b, 2) }

// refPFI is the product form's eta layout before the packed arena, kept as
// the bit-identity reference: each eta owns its idx/vals with the pivot
// entry inline at pivIdx. applyEtaInv, ftran, btranDense and pivot are the
// old kernels verbatim (pivot without the dense-pattern branch no caller
// reached).
type refPFI struct {
	etas []refEta
	nnz  int
	mark []bool
}

type refEta struct {
	r      int32
	idx    []int32
	vals   []float64
	pivIdx int32
}

func (p *refPFI) applyEtaInv(e *refEta, x []float64, pattern []int32, track bool) []int32 {
	xr := x[e.r]
	if xr == 0 {
		return pattern
	}
	piv := e.vals[e.pivIdx]
	xr /= piv
	x[e.r] = xr
	for k, i := range e.idx {
		if i == e.r {
			continue
		}
		before := x[i]
		x[i] = before - e.vals[k]*xr
		if track && !p.mark[i] {
			p.mark[i] = true
			pattern = append(pattern, i)
		}
	}
	return pattern
}

func (p *refPFI) ftran(aIdx []int32, aCoef []float64, w []float64) []int32 {
	var pattern []int32
	for k, r := range aIdx {
		if aCoef[k] == 0 {
			continue
		}
		w[r] += aCoef[k]
		if !p.mark[r] {
			p.mark[r] = true
			pattern = append(pattern, r)
		}
	}
	for i := range p.etas {
		pattern = p.applyEtaInv(&p.etas[i], w, pattern, true)
	}
	for _, i := range pattern {
		p.mark[i] = false
	}
	return pattern
}

func (p *refPFI) ftranDense(x []float64) {
	for i := range p.etas {
		p.applyEtaInv(&p.etas[i], x, nil, false)
	}
}

func (p *refPFI) btranDense(y []float64) {
	for i := len(p.etas) - 1; i >= 0; i-- {
		e := &p.etas[i]
		var dot float64
		for k, idx := range e.idx {
			if idx == e.r {
				continue
			}
			dot += y[idx] * e.vals[k]
		}
		y[e.r] = (y[e.r] - dot) / e.vals[e.pivIdx]
	}
}

func (p *refPFI) pivot(r int, w []float64, pat []int32) {
	e := refEta{r: int32(r)}
	seenR := false
	for _, i := range pat {
		v := w[i]
		if v == 0 && int(i) != r {
			continue
		}
		e.idx = append(e.idx, i)
		e.vals = append(e.vals, v)
		if int(i) == r {
			seenR = true
		}
	}
	if !seenR {
		e.idx = append(e.idx, int32(r))
		e.vals = append(e.vals, w[r])
	}
	for k, i := range e.idx {
		if int(i) == r {
			e.pivIdx = int32(k)
			break
		}
	}
	p.etas = append(p.etas, e)
	p.nnz += len(e.idx)
}

// replay rebuilds ref along the pivot sequence p.refactor(st) just chose:
// eta k pivots row p.etas[k].r on the column now basic there, through the
// reference FTRAN and refactor's singular-column rule (a pivot that fails
// pivotTol gets singularPivot added and its row appended to the pattern).
func (ref *refPFI) replay(p *pfiRep, st *simplexState) {
	ref.etas, ref.nnz = nil, 0
	w := make([]float64, st.m)
	for _, e := range p.etas {
		r, v := int(e.r), st.basis[e.r]
		pat := ref.ftran(st.colIdx[v], st.colCoef[v], w)
		if math.Abs(w[r]) <= pivotTol {
			w[r] += singularPivot
			pat = append(pat, e.r)
		}
		ref.pivot(r, w, pat)
		for _, i := range pat {
			w[i] = 0
		}
	}
}

// requireSameEtas fails unless p stores exactly ref's etas: the same pivot
// rows and pivot bits, the same off-pivot entries in the same order, and
// the same nnzCount.
func requireSameEtas(t *testing.T, tag string, p *pfiRep, ref *refPFI) {
	t.Helper()
	if len(p.etas) != len(ref.etas) || p.nnzCount() != ref.nnz {
		t.Fatalf("%s: %d etas / nnz %d, reference %d / %d", tag, len(p.etas), p.nnzCount(), len(ref.etas), ref.nnz)
	}
	for k, e := range ref.etas {
		var idx []int32
		var vals []float64
		for j, i := range e.idx {
			if i != e.r {
				idx, vals = append(idx, i), append(vals, e.vals[j])
			}
		}
		pe := p.etas[k]
		if pe.r != e.r || !sameBits(pe.piv, e.vals[e.pivIdx]) ||
			!slices.Equal(p.idx[pe.lo:pe.hi], idx) || !slices.EqualFunc(p.vals[pe.lo:pe.hi], vals, sameBits) {
			t.Fatalf("%s: eta %d differs from the reference", tag, k)
		}
	}
}

// randomSparseState returns an m-row state whose columns are m unit
// slacks followed by 2m random structurals of one to four nonzeros (some
// stored as explicit zeros), with the slack basis.
func randomSparseState(rng *rand.Rand, m int) *simplexState {
	st := &simplexState{m: m, basis: make([]int, m)}
	for i := 0; i < m; i++ {
		st.colIdx = append(st.colIdx, []int32{int32(i)})
		st.colCoef = append(st.colCoef, []float64{1})
		st.basis[i] = i
	}
	for j := 0; j < 2*m; j++ {
		var idx []int32
		var coef []float64
		for _, r := range rng.Perm(m)[:1+rng.Intn(4)] {
			c := 0.5 + 1.5*rng.Float64()
			switch rng.Intn(8) {
			case 0:
				c = 0
			case 1, 2:
				c = -c
			}
			idx, coef = append(idx, int32(r)), append(coef, c)
		}
		st.colIdx, st.colCoef = append(st.colIdx, idx), append(st.colCoef, coef)
	}
	return st
}

// TestPackedEtaArenaBitIdentical drives the packed eta arena and refPFI, the
// layout it replaced, through the same pivots and reinversions on seeded
// random sparse bases. Every FTRAN, dense FTRAN, unit BTRAN and dense BTRAN
// must agree bit for bit, with the same pattern order and nnzCount. Some
// reinversions run on a basis holding one column twice, so refactor's
// singular-column path appends the pivot row to a pattern that already
// lists it, and that row counts twice.
func TestPackedEtaArenaBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	doubled := 0
	for trial := 0; trial < 30; trial++ {
		m := 20 + rng.Intn(50)
		st := randomSparseState(rng, m)
		n := len(st.colIdx)
		p, ref := newPfiRep(m), &refPFI{mark: make([]bool, m)}
		reinvert := func(tag string) {
			p.refactor(st)
			ref.replay(p, st)
			requireSameEtas(t, tag, p, ref)
			for _, e := range ref.etas {
				if slices.Index(e.idx[slices.Index(e.idx, e.r)+1:], e.r) >= 0 {
					doubled++
				}
			}
		}
		compare := func(tag string, got, want []float64) {
			if !slices.EqualFunc(got, want, sameBits) {
				t.Fatalf("trial %d: %s output differs from the reference", trial, tag)
			}
		}
		random := func() []float64 {
			x := make([]float64, m)
			for i := range x {
				if rng.Intn(3) == 0 {
					x[i] = rng.NormFloat64()
				}
			}
			return x
		}
		reinvert("slack basis")
		wGot, wWant := make([]float64, m), make([]float64, m)
		for step := 0; step < 300; step++ {
			tag := fmt.Sprintf("trial %d step %d", trial, step)
			q := m + rng.Intn(n-m)
			if slices.Contains(st.basis, q) {
				continue
			}
			patGot := p.ftran(st.colIdx[q], st.colCoef[q], wGot)
			patWant := ref.ftran(st.colIdx[q], st.colCoef[q], wWant)
			if !slices.Equal(patGot, patWant) {
				t.Fatalf("%s: ftran pattern %v, reference %v", tag, patGot, patWant)
			}
			compare("ftran", wGot, wWant)
			x := random()
			xRef := slices.Clone(x)
			p.ftranDense(x)
			ref.ftranDense(xRef)
			compare("ftranDense", x, xRef)
			y := random()
			yRef := slices.Clone(y)
			p.btranDense(y)
			ref.btranDense(yRef)
			compare("btranDense", y, yRef)

			r, best := -1, pivotTol
			for _, i := range patGot {
				if a := math.Abs(wGot[i]); a > best {
					r, best = int(i), a
				}
			}
			if r >= 0 {
				u, uRef := make([]float64, m), make([]float64, m)
				uRef[r] = 1
				p.btranUnit(r, u)
				ref.btranDense(uRef)
				compare("btranUnit", u, uRef)
				p.pivot(r, wGot, patGot)
				ref.pivot(r, wWant, patWant)
				requireSameEtas(t, tag, p, ref)
				st.basis[r] = q
			}
			clear(wGot)
			clear(wWant)
			switch step % 50 {
			case 49:
				reinvert("reinversion")
			case 24:
				// Reinvert with one basic column doubled, then restore it.
				if a, b := rng.Intn(m), rng.Intn(m); a != b {
					v, keep := st.basis[a], st.basis[b]
					st.basis[b] = v
					reinvert("doubled column")
					st.basis[slices.Index(st.basis, v)] = keep
					reinvert("restored")
				}
			}
		}
	}
	if doubled == 0 {
		t.Fatal("no reinversion listed a pivot row twice; the singular-column path went untested")
	}
}
