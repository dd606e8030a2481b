package lp

import (
	"math"
	"sort"
)

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
// revalidated against the current bounds, the basic set is padded to
// exactly m members, the basis is factorized, and basic variables whose
// values violate their (possibly new) bounds are repaired row by row —
// demoted to a bound and replaced by a slack, or by a fresh artificial when
// no slack can pivot, so Phase 1 work is confined to the repaired rows.
// Returns false after restoring an all-nonbasic state when the basis cannot
// be seated (singular even after repairs, or repairs fail to converge); the
// caller then falls back to the diagonal crash, which retains the warm
// *nonbasic* statuses so rows they already satisfy skip Phase 1 too.
func (s *simplexState) installWarm(ws *WarmStart, model *Model) bool {
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

	s.rep = newBasisRep(m, model.forceRep)
	refac := func() bool {
		s.rep.refactor(s)
		s.computeXB()
		return s.consistent()
	}
	if !refac() {
		s.abortWarm()
		return false
	}

	// Repair loop: each round demotes out-of-bound basic variables to their
	// violated bound and replaces them with a variable that can actually
	// hold the resulting value — a nonbasic slack whose predicted entering
	// value fits its own bounds, or else a fresh artificial whose column
	// sign is chosen so it enters nonnegative. Each repair is a full
	// ratio-test-style exchange: the representation gets the elementary
	// pivot AND xB is updated incrementally (xB ← xB − t·w, entering value
	// at position i), so the repair exactly zeroes its row's violation and
	// later repairs in the same round see current values. Batching against
	// a stale B⁻¹ instead picks dead pivots and lands on a singular
	// factorization; ignoring the entering value seats equality-row slacks
	// that are forced straight back out of bounds, and the loop thrashes.
	// Feasible warm bases break out immediately with zero repairs;
	// bound/RHS drift typically converges in a round or two.
	rho := make([]float64, m)
	w := make([]float64, m)
	for round := 0; ; round++ {
		var bad []int
		for i := 0; i < m; i++ {
			j := s.basis[i]
			if s.xB[i] < s.lo[j]-feasTol || s.xB[i] > s.hi[j]+feasTol {
				bad = append(bad, i)
			}
		}
		sort.Slice(bad, func(a, b int) bool {
			return s.violation(bad[a]) > s.violation(bad[b])
		})
		repaired := 0
		for _, i := range bad {
			j := s.basis[i]
			if s.xB[i] < s.lo[j]-feasTol || s.xB[i] > s.hi[j]+feasTol {
				s.repairRow(i, rho, w, round >= forceArtifRound)
				repaired++
				// Long runs of elementary pivots erode the representation
				// (and with it the t = viol/w[i] predictions the repairs
				// rely on); refactor mid-round on the rep's usual schedule.
				if s.rep.shouldRefactor() && !refac() {
					s.abortWarm()
					return false
				}
			}
		}
		if repaired == 0 {
			break
		}
		s.stats.WarmRepairs += repaired
		// Refactor and recompute: incremental updates accumulate roundoff,
		// and the recompute is also what surfaces any rows knocked out of
		// bounds by this round's exchanges for the next pass.
		if !refac() {
			s.abortWarm()
			return false
		}
		if round >= 50*forceArtifRound {
			// Unreachable in theory once artificials are forced — each
			// forced exchange permanently converts a basis position — but
			// cheap insurance against numerical pathologies.
			s.abortWarm()
			return false
		}
	}
	// Any artificial introduced by a repair must be driven (back) to zero
	// before the real objective runs.
	s.phase1 = s.nArtif > 0
	return true
}

// violation returns how far basis position i sits outside its bounds.
func (s *simplexState) violation(i int) float64 {
	j := s.basis[i]
	if s.xB[i] > s.hi[j] {
		return s.xB[i] - s.hi[j]
	}
	return s.lo[j] - s.xB[i]
}

// forceArtifRound is the repair round after which repairRow stops trying
// slack replacements and installs artificials directly. Slack-preferred
// exchanges give the cheapest Phase 1 but can chase each other's
// perturbations on hard drifts; forced artificials make every subsequent
// exchange permanent (an artificial basis position never re-violates — its
// column sign just flips), so the loop provably terminates with the warm
// basis intact instead of falling all the way back to a cold start.
const forceArtifRound = 8

// repairRow fixes basis position i whose basic value violates its bounds
// with a ratio-test-style exchange: the basic j leaves to its violated
// bound β, an entering column e moves by t = (xB[i]−β)/w[i] (w = B⁻¹·a_e),
// and all basic values update as xB ← xB − t·w with the entering value
// nbVal_e + t landing at position i. Because t is known before committing,
// the replacement is chosen by where it ENDS UP, not just by pivot size:
// the slack with the best-conditioned pivot whose predicted value fits its
// own bounds wins, and when no slack qualifies (the row is genuinely
// infeasible at the current nonbasic values — e.g. an equality row whose
// fixed slack has no room) a fresh artificial enters, its column sign
// picked so its value t is nonnegative. A basic artificial driven negative
// by someone else's exchange just has its column negated (an elementary
// pivot by −e_i), which flips its value back positive.
// When forceArtif is set the slack search is skipped entirely.
// rho and w are caller-provided scratch of length m.
func (s *simplexState) repairRow(i int, rho, w []float64, forceArtif bool) {
	j := s.basis[i]
	if j >= s.nStruct+s.m {
		// Negating the artificial's column is B → B·diag(…,−1,…), i.e. the
		// elementary pivot with entering column B⁻¹·(−a_j) = −e_i; only
		// component i of xB changes, to −xB[i].
		s.colCoef[j][0] = -s.colCoef[j][0]
		for r := range w {
			w[r] = 0
		}
		w[i] = -1
		s.rep.pivot(i, w, []int32{int32(i)})
		s.xB[i] = -s.xB[i]
		return
	}
	var beta float64
	if s.xB[i] > s.hi[j] {
		s.status[j], s.nbVal[j] = warmNonbasic(stAtUpper, s.lo[j], s.hi[j])
		beta = s.hi[j]
	} else {
		s.status[j], s.nbVal[j] = warmNonbasic(stAtLower, s.lo[j], s.hi[j])
		beta = s.lo[j]
	}
	viol := s.xB[i] - beta
	for r := range rho {
		rho[r] = 0
	}
	s.rep.btranUnit(i, rho)
	// commit FTRANs the entering column, applies the elementary pivot to
	// the representation, and performs the xB update. For a slack e_r the
	// pivot element w[i] equals rho[r], so candidates are screened on rho
	// and the (more expensive) FTRAN runs only for the winner.
	commit := func(col int, enterVal float64) bool {
		for r := range w {
			w[r] = 0
		}
		pat := s.rep.ftran(s.colIdx[col], s.colCoef[col], w)
		if math.Abs(w[i]) <= pivotTol {
			return false
		}
		t := viol / w[i]
		s.rep.pivot(i, w, pat)
		for _, r := range pat {
			s.xB[r] -= t * w[r]
		}
		if len(pat) == 0 { // dense ftran path reports no pattern
			for r := 0; r < s.m; r++ {
				s.xB[r] -= t * w[r]
			}
		}
		s.basis[i] = col
		s.xB[i] = enterVal
		return true
	}
	// Prefer the nonbasic slack with the strongest pivot among those whose
	// predicted entering value stays within their own bounds.
	bestR, best := -1, pivotTol
	if forceArtif {
		bestR = -2
	}
	for r := 0; bestR != -2 && r < s.m; r++ {
		sj := s.nStruct + r
		if s.status[sj] == stBasic || math.Abs(rho[r]) <= pivotTol {
			continue
		}
		v := s.nbVal[sj] + viol/rho[r]
		if v < s.lo[sj] || v > s.hi[sj] {
			continue
		}
		if math.Abs(rho[r]) > best {
			bestR, best = r, math.Abs(rho[r])
		}
	}
	if bestR >= 0 {
		sj := s.nStruct + bestR
		enterVal := s.nbVal[sj] + viol/rho[bestR]
		old := s.status[sj]
		s.status[sj] = stBasic
		if commit(sj, enterVal) {
			s.nbVal[sj] = 0
			return
		}
		s.status[sj] = old
	}
	// No slack can hold the row: bring in an artificial on the strongest
	// pivot row, signed so it enters at a nonnegative value.
	bestR, best = i, 0
	for r := 0; r < s.m; r++ {
		if v := math.Abs(rho[r]); v > best {
			bestR, best = r, v
		}
	}
	sg := 1.0
	if viol/rho[bestR] < 0 {
		sg = -1
	}
	aj := len(s.colIdx)
	s.colIdx = append(s.colIdx, []int32{int32(bestR)})
	s.colCoef = append(s.colCoef, []float64{sg})
	s.lo = append(s.lo, 0)
	s.hi = append(s.hi, Inf)
	s.cost = append(s.cost, 0)
	s.p1cost = append(s.p1cost, 1)
	s.status = append(s.status, stBasic)
	s.nbVal = append(s.nbVal, 0)
	s.nArtif++
	s.n = len(s.colIdx)
	if !commit(aj, viol/(sg*rho[bestR])) {
		// e_bestR with bestR = argmax |rho| cannot have a zero pivot, but
		// stay safe: leave the artificial nonbasic at zero and keep the old
		// basis column; the round's refactor/consistency check decides.
		s.status[aj] = stAtLower
		s.nArtif--
		s.basis[i] = j
		s.status[j] = stBasic
	}
}

// abortWarm undoes a failed install: appended artificials are dropped and
// every basic variable is demoted to a bound, leaving a valid all-nonbasic
// state (with the warm nonbasic statuses intact) for the diagonal crash.
func (s *simplexState) abortWarm() {
	total := s.nStruct + s.m
	s.colIdx = s.colIdx[:total]
	s.colCoef = s.colCoef[:total]
	s.lo, s.hi = s.lo[:total], s.hi[:total]
	s.cost, s.p1cost = s.cost[:total], s.p1cost[:total]
	s.status, s.nbVal = s.status[:total], s.nbVal[:total]
	s.nArtif = 0
	s.n = total
	for j := 0; j < total; j++ {
		if s.status[j] == stBasic {
			s.status[j], s.nbVal[j] = warmNonbasic(stAtLower, s.lo[j], s.hi[j])
		}
	}
	s.rep = nil
}

// consistent verifies the factorized basic solution actually satisfies
// A·x = rhs and is finite. A structurally singular warm basis survives
// factorization via tiny fallback pivots; the residual exposes it.
func (s *simplexState) consistent() bool {
	act := make([]float64, s.m)
	for j := 0; j < s.n; j++ {
		if s.status[j] == stBasic {
			continue
		}
		v := s.nbVal[j]
		if v == 0 {
			continue
		}
		for k, r := range s.colIdx[j] {
			act[r] += s.colCoef[j][k] * v
		}
	}
	for i, j := range s.basis {
		v := s.xB[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		if v == 0 {
			continue
		}
		for k, r := range s.colIdx[j] {
			act[r] += s.colCoef[j][k] * v
		}
	}
	for i := range act {
		if math.Abs(act[i]-s.rhs[i]) > 1e-6*(1+math.Abs(s.rhs[i])) {
			return false
		}
	}
	return true
}
