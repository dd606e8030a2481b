package lp

import (
	"math"
	"slices"
	"sync/atomic"
)

// WarmStart captures the final simplex basis of a solve so a follow-up
// Solve of a structurally identical (or merely similar) model can resume
// from it instead of cold-starting from the all-slack basis. Handles are
// expressed in the model's own index space — one status per structural
// column and one per row's slack — the same space as Solution.X and
// Solution.Duals.
//
// A handle also carries the solve's final factorization of that basis,
// taken once: the first seat from the handle reuses it without a refactor
// when the model's structural columns are bit-identical to the captured
// ones (bounds, right-hand sides and objective may have moved). Later seats
// from the same handle, and seats onto a changed matrix, factorize afresh,
// so no solve ever sees an inverse another solve updated.
//
// A handle is a basis *hint*, never a correctness requirement: the solver
// validates it against the target model (dimensions, bound changes,
// factorizability) and silently falls back to a cold start when it cannot
// be seated. Reusing a handle across models with different variable/row
// counts is therefore safe, just useless.
type WarmStart struct {
	nCols, nRows int
	// colStat[j] is the final status of structural column j; slackStat[i]
	// the status of row i's slack. Basic artificial variables (possible at
	// degenerate optima) are not recorded — the install pads the basis with
	// slacks instead.
	colStat   []varStatus
	slackStat []varStatus
	// fact is the carried factorization, swapped to nil by the seat that
	// takes it; nil from the start when a basic artificial was dropped.
	fact atomic.Pointer[factorization]
}

// factorization is a basis representation as a solve left it, with that
// solve's whole state s: the variable at each of rep's positions
// (s.basis), the structural columns and costs the basis was factorized and
// priced on (s.colIdx, s.colCoef, s.cost — the column slices stay as
// captured: there is no coefficient setter, AddNamed appends), and the
// fresh reduced costs s.d and multipliers s.y of its optimum. The
// seat that takes it adopts s as its own state, so a handle's arrays are
// never shared with another solve.
type factorization struct {
	rep basisRep
	s   *simplexState
}

// fits reports whether the handle matches m's dimensions.
func (ws *WarmStart) fits(m *Model) bool {
	return ws != nil && ws.nCols == len(m.cols) && ws.nRows == len(m.rows)
}

// captureWarm snapshots the state's final statuses in its model's space and,
// when every basic variable is a structural or a slack, hands the handle its
// factorization together with the state itself (which the caller then no
// longer touches). The caller's budget is dropped from the state first: a
// retained handle must not keep its context or hook alive.
func (s *simplexState) captureWarm() *WarmStart {
	nS := s.nStruct
	ws := &WarmStart{
		nCols:     nS,
		nRows:     s.m,
		colStat:   make([]varStatus, nS),
		slackStat: make([]varStatus, s.m),
	}
	copy(ws.colStat, s.status[:nS])
	copy(ws.slackStat, s.status[nS:nS+s.m])
	if !slices.ContainsFunc(s.basis, func(j int) bool { return j >= nS+s.m }) {
		s.opts = SolveOpts{}
		ws.fact.Store(&factorization{rep: s.rep, s: s})
	}
	return ws
}

// matches reports whether model's structural columns (as many as f's: the
// handle fits) are bit-identical to f's — slack columns are unit vectors in
// any model with as many rows, so the basis matrices are then identical —
// and whether its costs, in the minimization direction sign gives, are too.
// It reads f.s before the seat overwrites it.
func (f *factorization) matches(model *Model, sign float64) (cols, costs bool) {
	s := f.s
	costs = true
	for j := range model.cols {
		c := &model.cols[j]
		if !slices.Equal(s.colIdx[j], c.rowIdx) || !slices.EqualFunc(s.colCoef[j], c.rowCoef, sameBits) {
			return false, false
		}
		costs = costs && sameBits(s.cost[j], sign*c.obj)
	}
	return true, costs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// warmNonbasic resolves a remembered nonbasic status against the variable's
// *current* bounds (which may have changed since the basis was captured)
// and returns a valid status plus the value the variable parks at. A status
// that no longer makes sense — at-lower with lo now −∞, free with finite
// bounds — degrades to the nearest bound, exactly like the cold start.
func warmNonbasic(st varStatus, lo, hi float64) (varStatus, float64) {
	switch st {
	case stAtUpper:
		if !math.IsInf(hi, 1) {
			return stAtUpper, hi
		}
	case stAtLower:
		if !math.IsInf(lo, -1) {
			return stAtLower, lo
		}
	case stFreeZero:
		if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
			return stFreeZero, 0
		}
	}
	v := nearestBound(lo, hi)
	switch {
	case !math.IsInf(lo, -1) && v == lo:
		return stAtLower, lo
	case !math.IsInf(hi, 1) && v == hi:
		return stAtUpper, hi
	default:
		return stFreeZero, 0
	}
}

// installWarm seats ws as the starting basis: nonbasic statuses are
// revalidated against the current bounds, and the basis takes the handle's
// factorization f (already taken from ws; s is f.s) as is when the matrix
// is unchanged (sameCols), or is padded to m members and factorized once in
// product form (never a dense O(m³) inversion).
// Basic values that now violate their bounds are left for dualSimplex
// (dual.go). Returns false after restoring an all-nonbasic state when the
// seated basis does not reproduce A·x = rhs (singular against the current
// matrix); the caller then falls back to the diagonal crash, which retains
// the warm *nonbasic* statuses.
func (s *simplexState) installWarm(ws *WarmStart, f *factorization, sameCols bool) bool {
	m, nS := s.m, s.nStruct
	basisSet := resize(s.basisSet, m)[:0]
	for j := 0; j < nS+m; j++ {
		var st varStatus
		if j < nS {
			st = ws.colStat[j]
		} else {
			st = ws.slackStat[j-nS]
		}
		if st == stBasic {
			s.status[j] = stBasic
			s.nbVal[j] = 0
			basisSet = append(basisSet, j)
			continue
		}
		s.status[j], s.nbVal[j] = warmNonbasic(st, s.lo[j], s.hi[j])
	}
	s.n = len(s.colIdx)
	s.basisSet = basisSet
	// A carried factorization comes from a basis with no artificial, whose
	// members are exactly basisSet, in the order s.basis kept.
	if f != nil && sameCols {
		s.rep, s.stats.FactorReused = f.rep, true
	} else {
		s.factorizeWarm(basisSet)
	}
	if !s.consistent(s.computeXB()) {
		s.abortWarm()
		return false
	}
	return true
}

// factorizeWarm pads the warm basic set to m members, assigns it basis
// positions and factorizes it in product form.
func (s *simplexState) factorizeWarm(basisSet []int) {
	m, nS := s.m, s.nStruct
	// A handle with m row slots was captured from m basis positions, so the
	// set can only be short (basic artificials were dropped at capture): pad
	// with nonbasic slacks.
	for i := 0; i < m && len(basisSet) < m; i++ {
		if sj := nS + i; s.status[sj] != stBasic {
			s.status[sj] = stBasic
			s.nbVal[sj] = 0
			basisSet = append(basisSet, sj)
		}
	}
	// Assign basis positions: slack i prefers position i (the product-form
	// refactor pairs positions with pivot rows, so this keeps the pairing
	// natural); everything else fills the gaps.
	used := make([]bool, m)
	var rest []int
	for _, j := range basisSet {
		if j >= nS && !used[j-nS] {
			s.basis[j-nS] = j
			used[j-nS] = true
		} else {
			rest = append(rest, j)
		}
	}
	ri := 0
	for i := 0; i < m; i++ {
		if !used[i] {
			s.basis[i] = rest[ri]
			ri++
		}
	}
	s.rep = newPfiRep(m)
	s.rep.refactor(s)
}

// abortWarm unseats the warm basis: every basic variable is demoted to a
// bound, leaving a valid all-nonbasic state (the nonbasic statuses intact)
// for the diagonal crash. The warm path never appends an artificial, so
// there is nothing else to undo but the factorization.
func (s *simplexState) abortWarm() {
	for j, st := range s.status {
		if st == stBasic {
			s.status[j], s.nbVal[j] = warmNonbasic(stAtLower, s.lo[j], s.hi[j])
		}
	}
	s.rep, s.stats.FactorReused = nil, false
}

// consistent verifies the factorization just built: B·xB must reproduce
// res = rhs − N·x_N, and B·(B⁻¹u) a generic probe u. A structurally singular
// warm basis survives factorization via tiny fallback pivots. The residual
// exposes it unless the right-hand side happens to lie in the singular
// basis's range — exactly so on small integer models, where the seated
// point is then feasible and its garbage reduced costs can pass for
// optimal — and that is what the probe catches.
func (s *simplexState) consistent(res []float64) bool {
	if !s.basisTimes(s.xB, res) {
		return false
	}
	s.u, s.z = resize(s.u, s.m), resize(s.z, s.m)
	u, z := s.u, s.z
	h := uint64(1)
	for i := range u {
		h = h*6364136223846793005 + 1442695040888963407
		u[i] = 1 + float64(h>>11)/(1<<53)
	}
	copy(z, u)
	s.rep.ftranDense(z)
	return s.basisTimes(z, u)
}

// basisTimes reports whether z is finite and B·z equals want to basisCheckTol.
func (s *simplexState) basisTimes(z, want []float64) bool {
	s.act = resize(s.act, s.m)
	act := s.act
	clear(act)
	for i, j := range s.basis {
		v := z[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		for k, r := range s.colIdx[j] {
			act[r] += s.colCoef[j][k] * v
		}
	}
	for i := range act {
		if math.Abs(act[i]-want[i]) > basisCheckTol*(1+math.Abs(want[i])) {
			return false
		}
	}
	return true
}
