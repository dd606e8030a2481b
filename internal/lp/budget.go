package lp

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// SolveOpts bounds one solve. The zero value imposes no budget beyond the
// model's own MaxIters safety limit. Budgets exist so a long-running TE
// controller can miss a computation window gracefully instead of blocking
// (or dying) the control loop: on a budget hit the solve returns a
// *BudgetError carrying the best feasible point found so far, which the
// caller may install or discard in favor of the last-good plan.
type SolveOpts struct {
	// Deadline is the wall-clock instant past which the solve stops. It is
	// checked every budgetBatch iterations, including before the first one,
	// so an already-expired deadline returns without pivoting (fault
	// injectors rely on this). Zero means no deadline.
	Deadline time.Time
	// MaxIters bounds the solve's total simplex iterations — dual pivots
	// of a warm re-solve and both primal phases. Unlike Model.MaxIters (a safety net that yields IterLimit),
	// exhausting this budget yields a *BudgetError. Zero means no bound.
	MaxIters int
	// Ctx cancels the solve between iteration batches; the simplex stops
	// within one batch of Ctx.Err() becoming non-nil. Nil means no
	// cancellation.
	Ctx context.Context
	// Hook, when non-nil, runs at every budget checkpoint (solve start and
	// each batch boundary) with the iterations completed so far. Tests and
	// fault injectors use it to observe or abort solves; a panic inside the
	// hook is recovered at the public boundary like any other solver panic.
	Hook func(iters int)
}

// unbounded reports whether the opts impose nothing to check, letting the
// iteration loop skip budget checkpoints entirely.
func (o SolveOpts) unbounded() bool {
	return o.Deadline.IsZero() && o.MaxIters <= 0 && o.Ctx == nil && o.Hook == nil
}

// budgetBatch is the number of simplex iterations between budget
// checkpoints: large enough that time.Now / Ctx.Err stay off the hot path,
// small enough that cancellation latency is a few microseconds of pivots.
const budgetBatch = 32

// ErrBudgetExceeded is wrapped by every *BudgetError; match with errors.Is.
var ErrBudgetExceeded = errors.New("lp: solve budget exceeded")

// ErrSolverPanic is wrapped by errors returned when a panic escapes the
// solver internals (or a SolveOpts.Hook). The public solve entry points
// recover such panics so a controller process survives solver bugs.
var ErrSolverPanic = errors.New("lp: solver panic")

// Budget-stop reasons carried by BudgetError.Reason.
const (
	BudgetDeadline = "deadline"   // SolveOpts.Deadline passed
	BudgetCanceled = "canceled"   // SolveOpts.Ctx canceled
	BudgetIters    = "iterations" // SolveOpts.MaxIters exhausted
)

// BudgetError reports a solve stopped by its SolveOpts budget.
type BudgetError struct {
	// Reason is one of BudgetDeadline, BudgetCanceled, BudgetIters.
	Reason string
	// Best is the best feasible point found before the stop — present only
	// when the budget hit in Phase II, where every simplex iterate is
	// primal-feasible (a stop in Phase I or inside a warm basis's dual
	// re-solve has no feasible point to offer).
	// Its Objective is valid but not optimal.
	Best *Solution
}

func (e *BudgetError) Error() string {
	if e.Best != nil {
		return fmt.Sprintf("lp: solve budget exceeded (%s; feasible point available)", e.Reason)
	}
	return fmt.Sprintf("lp: solve budget exceeded (%s)", e.Reason)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }
