package lp

import (
	"errors"
	"fmt"
	"math"

	"ffc/internal/obs"
)

// Sense is the direction of a linear constraint.
type Sense int8

const (
	// LE constrains expr ≤ rhs.
	LE Sense = iota
	// GE constrains expr ≥ rhs.
	GE
	// EQ constrains expr = rhs.
	EQ
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Status reports the outcome of a solve.
type Status int8

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints and bounds.
	Infeasible
	// Unbounded means the objective can be improved without limit.
	Unbounded
	// IterLimit means the solver gave up after MaxIters iterations.
	IterLimit
	// BudgetExceeded means a SolveOpts budget (deadline, iteration cap, or
	// context cancellation) stopped the solve; see BudgetError.
	BudgetExceeded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case BudgetExceeded:
		return "budget-exceeded"
	}
	return "unknown"
}

// ErrNotOptimal is wrapped by Solve errors when the status is not Optimal.
var ErrNotOptimal = errors.New("lp: no optimal solution")

type column struct {
	name    string
	lo, hi  float64
	obj     float64 // objective coefficient (in the user's direction)
	rowIdx  []int32
	rowCoef []float64
}

type rowMeta struct {
	name  string
	sense Sense
	rhs   float64
}

// Model is a linear program under construction. Models are not safe for
// concurrent mutation or concurrent solves (a solve may build byRow).
type Model struct {
	cols     []column
	rows     []rowMeta
	maximize bool
	objConst float64
	byRow    *rowCopy // built by the first solve; NewVar and AddNamed drop it

	// Options.

	// MaxIters bounds total simplex iterations (both phases). Zero means
	// a generous default proportional to the problem size.
	MaxIters int

	// forceRep overrides the cold crash's basis representation in tests
	// (0 = by size, 1 = dense, 2 = product-form); warm seats ignore it.
	forceRep int8
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables created so far.
func (m *Model) NumVars() int { return len(m.cols) }

// NumRows returns the number of constraints added so far.
func (m *Model) NumRows() int { return len(m.rows) }

// NewVar creates a variable with the given bounds. Use lp.Inf / -lp.Inf for
// unbounded directions. The name is used only in diagnostics.
func (m *Model) NewVar(name string, lo, hi float64) Var {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	m.cols = append(m.cols, column{name: name, lo: lo, hi: hi})
	m.byRow = nil
	return Var(len(m.cols) - 1)
}

// SetBounds replaces the bounds of an existing variable.
func (m *Model) SetBounds(v Var, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBounds(%d) lo %g > hi %g", v, lo, hi))
	}
	m.cols[v].lo, m.cols[v].hi = lo, hi
}

// Bounds returns the current bounds of v.
func (m *Model) Bounds(v Var) (lo, hi float64) { return m.cols[v].lo, m.cols[v].hi }

// SetRHS replaces the right-hand side of a row (as returned by
// AddConstraint). The model's dimensions are untouched, so a warm-start
// handle from an earlier solve still fits a follow-up SolveFrom.
func (m *Model) SetRHS(row int, rhs float64) { m.rows[row].rhs = rhs }

// SetObjCoef replaces v's objective coefficient (interpreted in the
// direction set by Maximize/Minimize) without rebuilding the objective.
func (m *Model) SetObjCoef(v Var, coef float64) { m.cols[v].obj = coef }

// VarName returns the diagnostic name of v.
func (m *Model) VarName(v Var) string { return m.cols[v].name }

// AddConstraint adds expr (sense) rhs. The expression's constant is moved to
// the right-hand side. Returns the row index for diagnostics.
func (m *Model) AddConstraint(expr *Expr, sense Sense, rhs float64) int {
	return m.AddNamed("", expr, sense, rhs)
}

// AddNamed adds a named constraint; the name appears in diagnostics.
func (m *Model) AddNamed(name string, expr *Expr, sense Sense, rhs float64) int {
	idx, coef := expr.compact()
	r := int32(len(m.rows))
	m.rows = append(m.rows, rowMeta{name: name, sense: sense, rhs: rhs - expr.Constant})
	m.byRow = nil
	for i, ci := range idx {
		c := &m.cols[ci]
		c.rowIdx = append(c.rowIdx, r)
		c.rowCoef = append(c.rowCoef, coef[i])
	}
	return int(r)
}

// rowCopy holds the structural columns row by row (CSR): row i's entries are
// col/val[start[i]:start[i+1]], in ascending column order. Row i's slack
// column is carved from shared arrays: ones[i:i+1] at rows unit[i:i+1].
type rowCopy struct {
	start     []int
	col, unit []int32
	val, ones []float64
}

// rowWise returns the model's row-wise copy, building it on first use.
func (m *Model) rowWise() *rowCopy {
	if m.byRow != nil {
		return m.byRow
	}
	nR := len(m.rows)
	t := &rowCopy{start: make([]int, nR+1), unit: make([]int32, nR), ones: make([]float64, nR)}
	for i := range t.unit {
		t.unit[i], t.ones[i] = int32(i), 1
	}
	for j := range m.cols {
		for _, r := range m.cols[j].rowIdx {
			t.start[r+1]++
		}
	}
	for i := 0; i < nR; i++ {
		t.start[i+1] += t.start[i]
	}
	t.col, t.val = make([]int32, t.start[nR]), make([]float64, t.start[nR])
	next := append([]int(nil), t.start[:nR]...)
	for j, c := range m.cols {
		for k, r := range c.rowIdx {
			t.col[next[r]], t.val[next[r]] = int32(j), c.rowCoef[k]
			next[r]++
		}
	}
	m.byRow = t
	return t
}

// AddLE adds expr ≤ rhs.
func (m *Model) AddLE(expr *Expr, rhs float64) int { return m.AddConstraint(expr, LE, rhs) }

// AddGE adds expr ≥ rhs.
func (m *Model) AddGE(expr *Expr, rhs float64) int { return m.AddConstraint(expr, GE, rhs) }

// AddEQ adds expr = rhs.
func (m *Model) AddEQ(expr *Expr, rhs float64) int { return m.AddConstraint(expr, EQ, rhs) }

// Maximize sets the objective to maximize expr.
func (m *Model) Maximize(expr *Expr) { m.setObjective(expr, true) }

// Minimize sets the objective to minimize expr.
func (m *Model) Minimize(expr *Expr) { m.setObjective(expr, false) }

func (m *Model) setObjective(expr *Expr, maximize bool) {
	for i := range m.cols {
		m.cols[i].obj = 0
	}
	idx, coef := expr.compact()
	for i, ci := range idx {
		m.cols[ci].obj = coef[i]
	}
	m.objConst = expr.Constant
	m.maximize = maximize
}

// Solution holds the result of a successful solve.
type Solution struct {
	// Status of the solve; Optimal unless Solve returned an error.
	Status Status
	// Objective is the objective value in the user's direction
	// (including any constant term).
	Objective float64
	// X holds a value per variable, indexed by Var.
	X []float64
	// Duals holds one dual value (shadow price) per constraint row, in the
	// user's objective direction: for a maximization, Duals[i] is the rate
	// at which the optimum grows per unit of extra slack on row i (≥ 0 for
	// binding ≤ rows, ≤ 0 for binding ≥ rows, 0 for non-binding rows).
	Duals []float64
	// Iters is the total number of simplex iterations used.
	Iters int
	// Stats breaks down the work the solve performed (iteration split,
	// reinversions, warm start or fallback, ...).
	Stats SolveStats

	// warm is the reusable basis snapshot (nil unless the solve reached
	// optimality on a model with rows).
	warm *WarmStart

	// budgetReason and budgetFeasible describe a BudgetExceeded stop: why
	// the budget fired and whether X holds a primal-feasible point (the
	// stop landed in the primal Phase II).
	budgetReason   string
	budgetFeasible bool
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// Warm returns the solve's reusable basis handle for SolveFrom, or nil
// when the solve did not produce one (non-optimal status, empty model).
func (s *Solution) Warm() *WarmStart { return s.warm }

// Solve runs the simplex method on the model exactly as built, from the
// cold diagonal crash basis. On non-optimal outcomes it returns a Solution
// carrying the status plus an error wrapping ErrNotOptimal.
func (m *Model) Solve() (*Solution, error) { return m.SolveWith(nil, SolveOpts{}) }

// SolveFrom is Solve starting from a previous solution's basis: the warm
// handle, in this model's own column and row indices, is seated on the
// factorization it carries (see WarmStart) or one fresh factorization, and
// driven back to feasibility against the current bounds/RHS by the dual
// simplex, so re-solves after SetRHS / SetBounds / SetObjCoef never run
// Phase 1 and skip most iterations. A handle that no longer fits the model
// is ignored, one the dual simplex cannot re-solve falls back to the cold
// start; passing nil is exactly Solve.
func (m *Model) SolveFrom(ws *WarmStart) (*Solution, error) {
	return m.SolveWith(ws, SolveOpts{})
}

// SolveWith is SolveFrom under a budget (see SolveOpts). It is the single
// public solve boundary: a budget stop returns the Solution (status
// BudgetExceeded) plus a *BudgetError carrying the best feasible point when
// one exists, and any panic escaping the solver internals — or the
// caller's Hook — is recovered into an error wrapping ErrSolverPanic
// (with a nil Solution), so a long-running controller never dies here.
func (m *Model) SolveWith(ws *WarmStart, opts SolveOpts) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			err = fmt.Errorf("%w: %v", ErrSolverPanic, r)
		}
	}()
	sp := obs.StartSpan("lp.solve")
	wsMismatch := ws != nil && !ws.fits(m)
	if wsMismatch {
		ws = nil
	}
	sol = solveSimplex(m, ws, opts)
	if wsMismatch {
		sol.Stats.WarmFellBack = true
	}
	sol.Stats.publish(sol.Status)
	sp.End()
	sol.Objective += m.objConst
	switch sol.Status {
	case Optimal:
		return sol, nil
	case BudgetExceeded:
		be := &BudgetError{Reason: sol.budgetReason}
		if sol.budgetFeasible {
			be.Best = sol
		}
		return sol, be
	default:
		return sol, fmt.Errorf("%w: %s", ErrNotOptimal, sol.Status)
	}
}

// EvalExpr evaluates expr at the solution point.
func (s *Solution) EvalExpr(e *Expr) float64 {
	v := e.Constant
	for _, t := range e.Terms {
		v += t.Coef * s.X[t.Var]
	}
	return v
}

// Violation returns how far the solution is from satisfying expr (sense)
// rhs; non-positive values (within tolerance) mean satisfied.
func (s *Solution) Violation(e *Expr, sense Sense, rhs float64) float64 {
	v := s.EvalExpr(e)
	switch sense {
	case LE:
		return v - rhs
	case GE:
		return rhs - v
	default:
		return math.Abs(v - rhs)
	}
}
