package lp

import (
	"math"
	"time"
)

// Solver tolerances. The FFC models are well scaled (capacities and demands
// are normalized to O(1..100) units by the callers), so fixed tolerances
// are adequate.
const (
	dualTol  = 1e-7  // reduced-cost optimality tolerance
	pivotTol = 1e-8  // minimum magnitude of an acceptable pivot element
	feasTol  = 1e-7  // bound/row feasibility tolerance
	degenEps = 1e-9  // step sizes below this count as degenerate
	fixedEps = 1e-12 // lo==hi detection
)

// Numerical guards beside the pivoting tolerances.
const (
	basisCheckTol    = 1e-6  // basisTimes: B·z must reproduce its right-hand side to this, relative
	pivotAgreeTol    = 1e-6  // dualSimplex: FTRAN's pivot and the pivot row's α_q must agree to this, relative
	phase1InfeasTol  = 1e-6  // Phase I ends infeasible when the artificials still sum above this
	singularPivot    = 1e-30 // stand-in pivot for a numerically singular basis column
	dualPivotsPerRow = 4     // dualSimplex gives up after dualPivotsPerRow·m + dualPivotSlack pivots
	dualPivotSlack   = 1000
)

// Refactor policy (shouldRefactor, checked after every pivot of either
// simplex). A warm handle carries its factorization into the next solve, so
// eta files span solves and these limits alone decide when a re-solve
// reinverts; the solve boundary no longer does.
const (
	denseMaxUpdates = 256  // dense inverse: pivots since the last inversion
	pfiMaxEtas      = 128  // product form: etas appended since the last reinversion
	pfiFillPerRow   = 40   // product form: or once the eta file holds more than
	pfiFillSlack    = 4096 // 2·baseNnz + pfiFillPerRow·m + pfiFillSlack nonzeros
)

type varStatus int8

const (
	stBasic varStatus = iota
	stAtLower
	stAtUpper
	stFreeZero // free nonbasic variable parked at zero
)

// simplexState is the working state of one solve. All variables (structural,
// slack, artificial) live in one index space.
type simplexState struct {
	m, n     int // rows; total variables (structural+slack+artificial)
	nStruct  int
	colIdx   [][]int32
	colCoef  [][]float64
	byRow    *rowCopy // the model's structural columns row by row
	lo, hi   []float64
	cost     []float64 // phase-II cost (minimization direction)
	p1cost   []float64 // phase-I cost
	rhs      []float64
	basis    []int // variable basic in each row
	status   []varStatus
	xB       []float64 // values of basic variables, per row
	rep      basisRep  // factorized basis inverse (dense or product-form)
	d        []float64 // reduced costs, per variable
	y        []float64 // the simplex multipliers of the last computeDuals
	fresh    bool      // d and y are Phase II computeDuals' output for the current basis
	gamma    []float64 // Devex reference weights, per variable
	nbVal    []float64 // cached value of each nonbasic variable
	phase1   bool
	inDual   bool // inside dualSimplex: xB is not yet within its bounds
	iters    int
	maxIters int
	nArtif   int
	stats    SolveStats // work counters, filled as the solve progresses

	// Budget checkpointing (SolveOpts). checkBudget gates the whole block
	// so an unbudgeted solve pays one boolean test per iteration;
	// budgetReason records why a BudgetExceeded stop fired.
	opts         SolveOpts
	checkBudget  bool
	budgetReason string

	// Scratch reused across iterations and, with the state, across solves:
	// the FTRAN, BTRAN and pivot-row vectors of both simplexes, the seat's
	// residual and probes, the dual's frozen marks, the extracted point and
	// the warm basic set. Whoever uses one sizes it with resize and writes
	// or clears all of it first.
	w, rho, alpha  []float64
	res, act, u, z []float64
	xs             []float64
	frozen         []bool
	basisSet       []int
}

// resize returns buf with length n, reallocating only when its capacity is
// short; the contents are left as they are.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// resizeCap is resize for a buffer that must also hold c elements without
// reallocating (the crash appends artificials to the per-variable arrays).
func resizeCap[T any](buf []T, n, c int) []T {
	if cap(buf) < c {
		return make([]T, n, c)
	}
	return buf[:n]
}

func solveSimplex(model *Model, ws *WarmStart, opts SolveOpts) *Solution {
	s := newState(model, ws, opts)
	sol := &Solution{X: make([]float64, len(model.cols))}
	if s == nil {
		// No rows: every variable independently sits at its objective-
		// optimal bound (or any bound when it has no objective weight).
		for i := range model.cols {
			c := &model.cols[i]
			up := c.obj > 0 == model.maximize && c.obj != 0
			switch {
			case c.obj == 0:
				sol.X[i] = nearestBound(c.lo, c.hi)
			case up:
				if math.IsInf(c.hi, 1) {
					sol.Status = Unbounded
					return sol
				}
				sol.X[i] = c.hi
			default:
				if math.IsInf(c.lo, -1) {
					sol.Status = Unbounded
					return sol
				}
				sol.X[i] = c.lo
			}
		}
		sol.Objective = objValue(model, sol.X)
		sol.Duals = []float64{}
		return sol
	}
	st := s.run(model)
	sol.Status = st
	sol.Iters = s.iters
	s.stats.Iters = s.iters
	s.stats.BasisNnz = s.rep.nnzCount()
	sol.Stats = s.stats
	// Phase-II iterates are primal-feasible, so a Phase-II stop has a usable
	// best-so-far point; a stop in Phase I or in the dual re-solve does not.
	feasible := !s.phase1 && !s.inDual
	if st == BudgetExceeded {
		sol.budgetReason = s.budgetReason
		sol.budgetFeasible = feasible
	}
	if st == Optimal || st == IterLimit || (st == BudgetExceeded && feasible) {
		copy(sol.X, s.extract()[:s.nStruct])
		sol.Objective = objValue(model, sol.X)
		sol.Duals = s.dualValues(model.maximize)
	}
	if st == Optimal {
		sol.warm = s.captureWarm()
	}
	return sol
}

// dualValues returns a new slice of y = c_B B⁻¹ per row, flipped back into
// the user's objective direction (the solver minimizes internally). A fresh
// y is exactly that: Phase II's computeDuals left it, and no pivot came
// after. s.y itself stays in the minimization direction, for the handle.
func (s *simplexState) dualValues(maximize bool) []float64 {
	y := make([]float64, s.m)
	if s.fresh {
		copy(y, s.y)
	} else {
		for i := 0; i < s.m; i++ {
			y[i] = s.cost[s.basis[i]]
		}
		s.rep.btranDense(y)
	}
	if maximize {
		for k := range y {
			y[k] = -y[k]
		}
	}
	return y
}

func objValue(model *Model, x []float64) float64 {
	var v float64
	for i := range model.cols {
		v += model.cols[i].obj * x[i]
	}
	return v
}

func nearestBound(lo, hi float64) float64 {
	switch {
	case !math.IsInf(lo, -1):
		return lo
	case !math.IsInf(hi, 1):
		return hi
	default:
		return 0
	}
}

// newState builds the working problem: slack per row, then either a warm
// basis install (when ws matches; run re-solves it with the dual simplex)
// or the cold diagonal crash — initial point with structural variables at a
// bound, slack basic where feasible, artificials elsewhere. Returns nil for
// a completely empty model.
//
// The state's arrays come from the handle's carried factorization when ws
// still carries one (they are the arrays of the solve that captured it),
// else they are allocated. A seat on the carried factorization over
// bit-identical columns and costs keeps the reduced costs and multipliers
// that solve priced at its optimum.
func newState(model *Model, ws *WarmStart, opts SolveOpts) *simplexState {
	m := len(model.rows)
	nS := len(model.cols)
	if m == 0 {
		return nil
	}
	sign := 1.0
	if model.maximize {
		sign = -1 // internally we always minimize
	}
	var f *factorization
	if ws != nil {
		f = ws.fact.Swap(nil)
	}
	var s *simplexState
	sameCols, sameCosts := false, false
	if f != nil {
		s = f.s
		sameCols, sameCosts = f.matches(model, sign)
	} else {
		s = &simplexState{}
	}
	s.reset(model, opts, sign)

	// Park every variable (structural and slack) at its nearest bound.
	// A warm install overwrites these statuses; the diagonal crash keeps
	// them.
	total := nS + m
	for j := 0; j < total; j++ {
		v := nearestBound(s.lo[j], s.hi[j])
		s.nbVal[j] = v
		switch {
		case v == s.lo[j] && !math.IsInf(s.lo[j], -1):
			s.status[j] = stAtLower
		case v == s.hi[j] && !math.IsInf(s.hi[j], 1):
			s.status[j] = stAtUpper
		default:
			s.status[j] = stFreeZero
		}
	}

	// SolveWith has already dropped a handle that does not fit.
	s.stats.Warm = ws != nil && s.installWarm(ws, f, sameCols)
	s.stats.WarmFellBack = ws != nil && !s.stats.Warm
	switch {
	case !s.stats.Warm:
		// A failed install left the warm *nonbasic* statuses in place, so
		// the diagonal crash needs artificials only on rows those values
		// don't satisfy.
		s.crashDiagonal(model)
		s.price()
	case s.stats.FactorReused && sameCosts:
		// Same basis, factorization, columns and costs as the optimum, whose
		// d and y are fresh (optimize returns Optimal only on fresh duals):
		// computeDuals would reproduce them bit for bit.
		s.d = resize(s.d, s.n)
		s.gamma = resize(s.gamma, s.n)
		s.resetDevex()
		s.fresh = true
	default:
		s.price()
	}

	s.maxIters = model.MaxIters
	if s.maxIters == 0 {
		s.maxIters = 200*(m+s.n) + 20000
	}
	return s
}

// reset readies s for a solve of model: every scalar from zero, every
// per-variable and per-row array sized for the model's structurals and
// slacks (with room for one artificial per row) and filled from it. The
// basis, d and y keep their contents: a carried seat relies on them, and
// every other path overwrites them.
func (s *simplexState) reset(model *Model, opts SolveOpts, sign float64) {
	m, nS := len(model.rows), len(model.cols)
	total := nS + m // artificials appended later
	old := *s
	*s = simplexState{
		m: m, nStruct: nS, byRow: model.rowWise(), opts: opts, checkBudget: !opts.unbounded(),
		colIdx:  resizeCap(old.colIdx, total, total+m),
		colCoef: resizeCap(old.colCoef, total, total+m),
		lo:      resizeCap(old.lo, total, total+m),
		hi:      resizeCap(old.hi, total, total+m),
		cost:    resizeCap(old.cost, total, total+m),
		p1cost:  resizeCap(old.p1cost, total, total+m),
		status:  resizeCap(old.status, total, total+m),
		nbVal:   resizeCap(old.nbVal, total, total+m),
		rhs:     resize(old.rhs, m),
		y:       resize(old.y, m),
		basis:   resize(old.basis, m),
		xB:      resize(old.xB, m),
		d:       old.d, gamma: old.gamma,
		w: old.w, rho: old.rho, alpha: old.alpha,
		res: old.res, act: old.act, u: old.u, z: old.z,
		xs: old.xs, frozen: old.frozen, basisSet: old.basisSet,
	}
	clear(s.p1cost)
	for j := 0; j < nS; j++ {
		c := &model.cols[j]
		s.colIdx[j] = c.rowIdx
		s.colCoef[j] = c.rowCoef
		s.lo[j], s.hi[j] = c.lo, c.hi
		s.cost[j] = sign * c.obj
	}
	for i := 0; i < m; i++ {
		j := nS + i
		s.colIdx[j] = s.byRow.unit[i : i+1 : i+1]
		s.colCoef[j] = s.byRow.ones[i : i+1 : i+1]
		switch model.rows[i].sense {
		case LE:
			s.lo[j], s.hi[j] = 0, Inf
		case GE:
			s.lo[j], s.hi[j] = math.Inf(-1), 0
		case EQ:
			s.lo[j], s.hi[j] = 0, 0
		}
		s.cost[j] = 0
		s.rhs[i] = model.rows[i].rhs
	}
}

// price sizes the per-variable pricing vectors for the seated basis (the
// crash may have appended artificials) and computes the reduced costs.
func (s *simplexState) price() {
	s.d = resize(s.d, s.n)
	s.gamma = resize(s.gamma, s.n)
	s.resetDevex()
	s.computeDuals()
}

// crashDiagonal builds the classic diagonal starting basis from the current
// nonbasic statuses: slack basic where the row is satisfiable at the
// current structural values, an artificial absorbing the residual
// elsewhere.
func (s *simplexState) crashDiagonal(model *Model) {
	m, nS := s.m, s.nStruct

	// Row activity from structural variables at their parked values.
	s.act = resize(s.act, m)
	act := s.act
	clear(act)
	for j := 0; j < nS; j++ {
		v := s.nbVal[j]
		if v == 0 {
			continue
		}
		for k, r := range s.colIdx[j] {
			act[r] += s.colCoef[j][k] * v
		}
	}

	needPhase1 := false
	for i := 0; i < m; i++ {
		sj := nS + i
		want := s.rhs[i] - act[i] // slack value that would satisfy the row
		if want >= s.lo[sj]-feasTol && want <= s.hi[sj]+feasTol {
			s.basis[i] = sj
			s.status[sj] = stBasic
			s.xB[i] = clamp(want, s.lo[sj], s.hi[sj])
			continue
		}
		// Slack stays at its nearest bound; an artificial absorbs the rest.
		bound := clamp(want, s.lo[sj], s.hi[sj])
		s.nbVal[sj] = bound
		if bound == s.lo[sj] {
			s.status[sj] = stAtLower
		} else {
			s.status[sj] = stAtUpper
		}
		resid := want - bound
		sg := 1.0
		if resid < 0 {
			sg = -1
		}
		aj := len(s.colIdx)
		s.colIdx = append(s.colIdx, []int32{int32(i)})
		s.colCoef = append(s.colCoef, []float64{sg})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.cost = append(s.cost, 0)
		s.p1cost = append(s.p1cost, 1)
		s.status = append(s.status, stBasic)
		s.nbVal = append(s.nbVal, 0)
		s.basis[i] = aj
		s.xB[i] = math.Abs(resid)
		s.nArtif++
		needPhase1 = true
	}
	s.n = len(s.colIdx)
	s.phase1 = needPhase1

	// The initial basis matrix is diagonal: slack columns carry +1 and
	// artificial columns carry ±1.
	s.rep = newBasisRep(m, model.forceRep)
	if dr, ok := s.rep.(*denseRep); ok {
		diag := make([]float64, m)
		for i := 0; i < m; i++ {
			diag[i] = s.colCoef[s.basis[i]][0]
		}
		dr.initDiagonal(diag)
	} else {
		s.rep.refactor(s) // trivial for a diagonal basis
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (s *simplexState) activeCost(j int) float64 {
	if s.phase1 {
		return s.p1cost[j]
	}
	return s.cost[j]
}

// resetDevex restores the Devex reference framework (all weights 1).
func (s *simplexState) resetDevex() {
	for j := range s.gamma {
		s.gamma[j] = 1
	}
}

// computeDuals recomputes all reduced costs from scratch:
// y = c_B B⁻¹, d_j = c_j − y·A_j.
func (s *simplexState) computeDuals() {
	y := s.y
	for i := 0; i < s.m; i++ {
		y[i] = s.activeCost(s.basis[i])
	}
	s.rep.btranDense(y)
	for j := 0; j < s.n; j++ {
		if s.status[j] == stBasic {
			s.d[j] = 0
			continue
		}
		dj := s.activeCost(j)
		idx, coef := s.colIdx[j], s.colCoef[j]
		for k, r := range idx {
			dj -= y[r] * coef[k]
		}
		s.d[j] = dj
	}
	s.fresh = !s.phase1
}

// refactor rebuilds the basis representation and the basic solution.
// The representation may reorder s.basis (position↔row bookkeeping).
func (s *simplexState) refactor() {
	s.stats.Reinversions++
	s.rep.refactor(s)
	s.computeXB()
	s.computeDuals()
}

// computeXB recomputes xB = B⁻¹ (rhs − N x_N) from the factorization and
// returns rhs − N x_N.
func (s *simplexState) computeXB() []float64 {
	res := s.rhsMinusNonbasic()
	copy(s.xB, res)
	s.rep.ftranDense(s.xB)
	return res
}

// rhsMinusNonbasic returns rhs − N·x_N, the vector B·xB must equal, in
// s.res (overwritten by the next call).
func (s *simplexState) rhsMinusNonbasic() []float64 {
	s.res = resize(s.res, s.m)
	res := s.res
	copy(res, s.rhs)
	for j := 0; j < s.n; j++ {
		if s.status[j] == stBasic {
			continue
		}
		v := s.nbVal[j]
		if v == 0 {
			continue
		}
		for k, r := range s.colIdx[j] {
			res[r] -= s.colCoef[j][k] * v
		}
	}
	return res
}

// invertInPlace inverts the n×n row-major matrix a via Gauss-Jordan with
// partial pivoting. Singular bases should be impossible (every basis matrix
// is invertible by construction); in pathological numerical cases the tiny
// pivot is used anyway and the next refactor will clean up.
func invertInPlace(a []float64, n int) {
	inv := make([]float64, n*n)
	for i := 0; i < n; i++ {
		inv[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, best := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > best {
				p, best = r, v
			}
		}
		if p != col {
			swapRows(a, n, p, col)
			swapRows(inv, n, p, col)
		}
		piv := a[col*n+col]
		if piv == 0 {
			piv = singularPivot
		}
		invPiv := 1 / piv
		ar := a[col*n : col*n+n]
		ir := inv[col*n : col*n+n]
		for k := range ar {
			ar[k] *= invPiv
			ir[k] *= invPiv
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			arr := a[r*n : r*n+n]
			irr := inv[r*n : r*n+n]
			for k := 0; k < n; k++ {
				arr[k] -= f * ar[k]
				irr[k] -= f * ir[k]
			}
		}
	}
	copy(a, inv)
}

func swapRows(a []float64, n, i, j int) {
	ri, rj := a[i*n:i*n+n], a[j*n:j*n+n]
	for k := 0; k < n; k++ {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// run re-solves a seated warm basis with the dual simplex — falling back
// to the cold crash when that gives up — then executes Phase I (if needed)
// and Phase II.
func (s *simplexState) run(model *Model) Status {
	if s.stats.Warm {
		st, ok := s.dualSimplex()
		if !ok {
			s.abortWarm()
			s.stats.Warm, s.stats.WarmFellBack = false, true
			s.crashDiagonal(model)
			s.price()
		} else if st != Optimal {
			return st
		}
	}
	if s.phase1 {
		st := s.optimize()
		s.stats.Phase1Iters = s.iters - s.stats.DualIters
		if st != Optimal {
			if st == Unbounded {
				// Phase-I objective is bounded below by zero; treat as numerical trouble.
				return Infeasible
			}
			return st
		}
		var infeas float64
		for i := range s.basis {
			if s.basis[i] >= s.nStruct+s.m {
				infeas += s.xB[i]
			}
		}
		for j := s.nStruct + s.m; j < s.n; j++ {
			if s.status[j] != stBasic && s.nbVal[j] > infeas {
				infeas = s.nbVal[j]
			}
		}
		if infeas > phase1InfeasTol {
			return Infeasible
		}
		// Fix artificials at zero and move to Phase II.
		for j := s.nStruct + s.m; j < s.n; j++ {
			s.lo[j], s.hi[j] = 0, 0
			if s.status[j] != stBasic {
				s.nbVal[j] = 0
				s.status[j] = stAtLower
			}
		}
		s.phase1 = false
		s.resetDevex()
		s.computeDuals()
	}
	return s.optimize()
}

// budgetCheckpoint enforces SolveOpts at the iteration-loop head. The
// iteration cap is exact; deadline, cancellation, and the hook fire every
// budgetBatch iterations — including at iteration 0, so a solve whose
// deadline already passed (or whose context is already canceled) stops
// before the first pivot. Returns Optimal to mean "keep iterating".
func (s *simplexState) budgetCheckpoint() Status {
	if s.opts.MaxIters > 0 && s.iters >= s.opts.MaxIters {
		s.budgetReason = BudgetIters
		return BudgetExceeded
	}
	if s.iters%budgetBatch != 0 {
		return Optimal
	}
	if s.opts.Hook != nil {
		s.opts.Hook(s.iters)
	}
	if s.opts.Ctx != nil && s.opts.Ctx.Err() != nil {
		s.budgetReason = BudgetCanceled
		return BudgetExceeded
	}
	if !s.opts.Deadline.IsZero() && time.Now().After(s.opts.Deadline) {
		s.budgetReason = BudgetDeadline
		return BudgetExceeded
	}
	return Optimal
}

// optimize runs primal simplex iterations until optimality for the current
// phase's cost vector.
func (s *simplexState) optimize() Status {
	m := s.m
	w, rho, alpha := s.pricingScratch()
	bland := false
	degenRun := 0
	for {
		if s.iters >= s.maxIters {
			return IterLimit
		}
		if s.checkBudget {
			if st := s.budgetCheckpoint(); st != Optimal {
				return st
			}
		}
		q, dir := s.chooseEntering(bland)
		if q < 0 {
			// Optimal for this phase. Unless d is fresh, verify with fresh
			// duals once, to guard against drift in the incremental updates.
			if s.fresh {
				return Optimal
			}
			s.computeDuals()
			q, dir = s.chooseEntering(bland)
			if q < 0 {
				return Optimal
			}
		}
		s.iters++
		s.fresh = false

		// FTRAN: w = B⁻¹ A_q (w arrives zeroed; see loop tail).
		pat := s.rep.ftran(s.colIdx[q], s.colCoef[q], w)

		// Ratio test over basic variables plus the entering bound span.
		theta := math.Inf(1)
		leave := -1
		leaveAtUpper := false
		span := s.hi[q] - s.lo[q]
		if !math.IsInf(span, 1) {
			theta = span
		}
		ratioRow := func(i int) {
			wi := dir * w[i]
			if wi > pivotTol {
				// Basic variable i decreases toward its lower bound.
				if lo := s.lo[s.basis[i]]; !math.IsInf(lo, -1) {
					t := (s.xB[i] - lo) / wi
					if t < theta-degenEps || (t < theta+degenEps && better(leave, i, w)) {
						theta, leave, leaveAtUpper = max(t, 0), i, false
					}
				}
			} else if wi < -pivotTol {
				// Basic variable i increases toward its upper bound.
				if hi := s.hi[s.basis[i]]; !math.IsInf(hi, 1) {
					t := (s.xB[i] - hi) / wi
					if t < theta-degenEps || (t < theta+degenEps && better(leave, i, w)) {
						theta, leave, leaveAtUpper = max(t, 0), i, true
					}
				}
			}
		}
		if pat == nil {
			for i := 0; i < m; i++ {
				ratioRow(i)
			}
		} else {
			for _, i := range pat {
				ratioRow(int(i))
			}
		}
		if math.IsInf(theta, 1) {
			clearW(w, pat)
			return Unbounded
		}

		if theta <= degenEps {
			degenRun++
			if degenRun > 4*(m+64) {
				if !bland {
					s.stats.BlandActivations++
				}
				bland = true
			}
		} else {
			degenRun = 0
			bland = false
		}

		if leave < 0 {
			// Bound flip: entering variable moves across its full span.
			s.stats.BoundFlips++
			applyStep(s.xB, w, pat, dir*theta)
			if s.status[q] == stAtLower {
				s.status[q] = stAtUpper
				s.nbVal[q] = s.hi[q]
			} else {
				s.status[q] = stAtLower
				s.nbVal[q] = s.lo[q]
			}
			clearW(w, pat)
			continue
		}

		// Pivot: q enters the basis at row `leave`.
		enterVal := s.nbVal[q] + dir*theta
		applyStep(s.xB, w, pat, dir*theta)
		lv := s.basis[leave]
		if leaveAtUpper {
			s.status[lv] = stAtUpper
			s.nbVal[lv] = s.hi[lv]
		} else {
			s.status[lv] = stAtLower
			s.nbVal[lv] = s.lo[lv]
		}
		if s.lo[lv] == s.hi[lv] {
			s.nbVal[lv] = s.lo[lv]
		}
		s.basis[leave] = q
		s.status[q] = stBasic
		s.xB[leave] = enterVal

		// Pivot row of B⁻¹ (before the basis change) for the reduced-cost
		// update, then apply the transformation to the representation.
		for i := range rho {
			rho[i] = 0
		}
		s.rep.btranUnit(leave, rho)
		piv := w[leave]
		invPiv := 1 / piv
		s.rep.pivot(leave, w, pat)
		clearW(w, pat)
		pivotRow(s, rho, alpha)

		// Incremental reduced costs (d_j -= (d_q/piv)·(ρ·A_j)) and Devex
		// weight updates (Forrest–Goldfarb) from the same pivot row.
		ratio := s.d[q] * invPiv
		gq := s.gamma[q]
		for j := 0; j < s.n; j++ {
			if s.status[j] == stBasic {
				s.d[j] = 0
				continue
			}
			a := alpha[j]
			if a == 0 {
				continue
			}
			s.d[j] -= ratio * a
			if g := (a * invPiv) * (a * invPiv) * gq; g > s.gamma[j] {
				s.gamma[j] = g
			}
		}
		s.d[q] = 0
		s.d[lv] = -ratio
		if g := gq * invPiv * invPiv; g > 1 {
			s.gamma[lv] = g
		} else {
			s.gamma[lv] = 1
		}
		if s.gamma[lv] > 1e12 || gq > 1e12 {
			s.stats.DevexResets++
			s.resetDevex()
		}

		if s.rep.shouldRefactor() {
			s.refactor()
		}
	}
}

// pivotRow computes the pivot row α_j = ρ·A_j of every column j into alpha;
// the bit-identity test swaps in the column-wise reference.
var pivotRow = (*simplexState).pivotRowByRows

// pivotRowByRows scatters ρ's nonzero rows over the row-wise copy of A; slack
// and artificial columns are unit columns. Each α_j equals the column-wise
// dot bit for bit: rows go in ascending order, as every column's entries do,
// and a sum from +0 is unchanged by the dot's ±0 terms for ρ's zero rows.
func (s *simplexState) pivotRowByRows(rho, alpha []float64) {
	t, nS := s.byRow, s.nStruct
	clear(alpha[:nS])
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		for k := t.start[i]; k < t.start[i+1]; k++ {
			alpha[t.col[k]] += ri * t.val[k]
		}
	}
	copy(alpha[nS:], rho)
	for j := nS + s.m; j < s.n; j++ {
		alpha[j] = rho[s.colIdx[j][0]] * s.colCoef[j][0]
	}
}

// applyStep performs xB -= step·w over w's nonzero pattern (nil = dense).
func applyStep(xB, w []float64, pat []int32, step float64) {
	if step == 0 {
		return
	}
	if pat == nil {
		for i := range xB {
			xB[i] -= step * w[i]
		}
		return
	}
	for _, i := range pat {
		xB[i] -= step * w[i]
	}
}

// clearW zeroes w over its pattern so the buffer can be reused.
func clearW(w []float64, pat []int32) {
	if pat == nil {
		for i := range w {
			w[i] = 0
		}
		return
	}
	for _, i := range pat {
		w[i] = 0
	}
}

// better breaks ratio-test ties in favour of the larger pivot magnitude
// for numerical stability.
func better(cur, cand int, w []float64) bool { return cur < 0 || math.Abs(w[cand]) > math.Abs(w[cur]) }

// chooseEntering returns the entering variable and its movement direction
// (+1 increase, −1 decrease), or (-1, 0) when no candidate improves. It
// prices with Devex weights (d_j²/γ_j), falling back to Bland's rule for
// anti-cycling when asked.
func (s *simplexState) chooseEntering(bland bool) (int, float64) {
	bestJ, bestDir, bestScore := -1, 0.0, 0.0
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == stBasic {
			continue
		}
		if s.hi[j]-s.lo[j] <= fixedEps && st != stFreeZero {
			continue // fixed variable can never move
		}
		dj := s.d[j]
		var dir float64
		switch st {
		case stAtLower:
			if dj < -dualTol {
				dir = 1
			}
		case stAtUpper:
			if dj > dualTol {
				dir = -1
			}
		case stFreeZero:
			if dj < -dualTol {
				dir = 1
			} else if dj > dualTol {
				dir = -1
			}
		}
		if dir == 0 {
			continue
		}
		if bland {
			return j, dir
		}
		if sc := dj * dj / s.gamma[j]; sc > bestScore {
			bestJ, bestDir, bestScore = j, dir, sc
		}
	}
	return bestJ, bestDir
}

// pricingScratch returns the zeroed FTRAN vector w, the BTRAN vector ρ and
// the pivot row α, sized for the current state.
func (s *simplexState) pricingScratch() (w, rho, alpha []float64) {
	s.w, s.rho, s.alpha = resize(s.w, s.m), resize(s.rho, s.m), resize(s.alpha, s.n)
	clear(s.w)
	return s.w, s.rho, s.alpha
}

// extract returns the value of every variable (structural first), in s.xs.
func (s *simplexState) extract() []float64 {
	s.xs = resize(s.xs, s.n)
	x := s.xs
	for j := 0; j < s.n; j++ {
		if s.status[j] != stBasic {
			x[j] = s.nbVal[j]
		}
	}
	for i, j := range s.basis {
		x[j] = s.xB[i]
	}
	// Clamp small bound violations from floating-point drift.
	for j := 0; j < s.n; j++ {
		x[j] = clamp(x[j], s.lo[j]-0, s.hi[j]+0)
	}
	return x
}
