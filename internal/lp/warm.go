package lp

import "math"

// WarmStart captures the final simplex basis of a solve so a follow-up
// Solve of a structurally identical (or merely similar) model can resume
// from it instead of cold-starting from the all-slack basis. Handles are
// expressed in the model's own index space — one status per structural
// column and one per row's slack — the same space as Solution.X and
// Solution.Duals.
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
}

// fits reports whether the handle matches m's dimensions.
func (ws *WarmStart) fits(m *Model) bool {
	return ws != nil && ws.nCols == len(m.cols) && ws.nRows == len(m.rows)
}

// captureWarm snapshots the state's final statuses in its model's space.
func (s *simplexState) captureWarm() *WarmStart {
	ws := &WarmStart{
		nCols:     s.nStruct,
		nRows:     s.m,
		colStat:   make([]varStatus, s.nStruct),
		slackStat: make([]varStatus, s.m),
	}
	copy(ws.colStat, s.status[:s.nStruct])
	copy(ws.slackStat, s.status[s.nStruct:s.nStruct+s.m])
	return ws
}

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
// revalidated against the current bounds, the basic set is padded to exactly
// m members, and the basis is factorized once, in product form at every size
// (a dense seat is an O(m³) inversion). Basic values that now violate their
// bounds are left for dualSimplex (dual.go). Returns false after restoring an
// all-nonbasic state when the factorized basis does not reproduce A·x = rhs
// (singular against the current matrix); the caller then falls back to the
// diagonal crash, which retains the warm *nonbasic* statuses.
func (s *simplexState) installWarm(ws *WarmStart) bool {
	m, nS := s.m, s.nStruct
	basisSet := make([]int, 0, m)
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
	s.n = len(s.colIdx)

	s.rep = newPfiRep(m)
	s.rep.refactor(s)
	s.computeXB()
	if !s.consistent() {
		s.abortWarm()
		return false
	}
	return true
}

// abortWarm unseats the warm basis: every basic variable is demoted to a
// bound, leaving a valid all-nonbasic state (the nonbasic statuses intact)
// for the diagonal crash. The warm path never appends an artificial, so
// there is nothing else to undo.
func (s *simplexState) abortWarm() {
	for j, st := range s.status {
		if st == stBasic {
			s.status[j], s.nbVal[j] = warmNonbasic(stAtLower, s.lo[j], s.hi[j])
		}
	}
	s.rep = nil
}

// consistent verifies the factorization just built: B·xB must reproduce
// rhs − N·x_N, and B·(B⁻¹u) a generic probe u. A structurally singular warm
// basis survives factorization via tiny fallback pivots. The residual
// exposes it unless the right-hand side happens to lie in the singular
// basis's range — exactly so on small integer models, where the seated
// point is then feasible and its garbage reduced costs can pass for
// optimal — and that is what the probe catches.
func (s *simplexState) consistent() bool {
	if !s.basisTimes(s.xB, s.rhsMinusNonbasic()) {
		return false
	}
	u := make([]float64, s.m)
	h := uint64(1)
	for i := range u {
		h = h*6364136223846793005 + 1442695040888963407
		u[i] = 1 + float64(h>>11)/(1<<53)
	}
	z := append([]float64(nil), u...)
	s.rep.ftranDense(z)
	return s.basisTimes(z, u)
}

// basisTimes reports whether z is finite and B·z equals want to 1e-6.
func (s *simplexState) basisTimes(z, want []float64) bool {
	act := make([]float64, s.m)
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
		if math.Abs(act[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			return false
		}
	}
	return true
}
