package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Budget bounds one TE computation. The zero value imposes nothing. The
// budget covers the whole computation — formulation and simplex — measured
// from the moment Solve is called.
type Budget struct {
	// Deadline is the wall-clock budget relative to the start of the
	// computation. Negative means already expired (fault injection uses
	// this to force a deterministic budget hit before the first pivot);
	// zero means no deadline.
	Deadline time.Duration
	// MaxIters bounds total simplex iterations; exceeding it is a budget
	// hit, not an lp.IterLimit. Zero means no bound.
	MaxIters int
	// Ctx cancels the computation between simplex iteration batches; nil
	// means no cancellation.
	Ctx context.Context
	// Hook is forwarded to lp.SolveOpts.Hook (observation and fault
	// injection); a panic inside it is recovered into a solver-error
	// outcome instead of killing the process.
	Hook func(iters int)
}

// Outcome classifies one TE computation for control-loop decisions: only
// OutcomeOptimal yields a plan safe to install as-is; the other outcomes
// tell the caller which fallback applies (retry unprotected, reuse the
// last-good plan via Degrade, ...).
type Outcome int8

const (
	// OutcomeOptimal: the solve completed with an optimal plan.
	OutcomeOptimal Outcome = iota
	// OutcomeBudgetHit: the budget (deadline, iterations, cancellation)
	// expired first. A best-so-far State may still have been returned.
	OutcomeBudgetHit
	// OutcomeInfeasible: no allocation satisfies the constraints at this
	// protection level.
	OutcomeInfeasible
	// OutcomeSolverError: invalid input or an internal solver failure
	// (including recovered panics).
	OutcomeSolverError
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOptimal:
		return "optimal"
	case OutcomeBudgetHit:
		return "budget-hit"
	case OutcomeInfeasible:
		return "infeasible"
	case OutcomeSolverError:
		return "solver-error"
	}
	return "unknown"
}

// ErrBadInput is wrapped by Solve errors caused by invalid Input values
// (NaN/negative demands, caps, floors, or protection levels). Catching bad
// numbers here keeps lp's bound panics as pure internal-invariant checks.
var ErrBadInput = errors.New("core: invalid input")

// validate rejects inputs that would otherwise surface as lp bound panics
// or silently nonsensical plans deep inside the formulation.
func (in *Input) validate() error {
	if in.Prot.Kc < 0 || in.Prot.Ke < 0 || in.Prot.Kv < 0 {
		return fmt.Errorf("%w: negative protection level %v", ErrBadInput, in.Prot)
	}
	check := func(what string, f tunnel.Flow, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%w: %s for flow %d->%d is %g", ErrBadInput, what, f.Src, f.Dst, v)
		}
		return nil
	}
	for f, d := range in.Demands {
		if err := check("demand", f, d); err != nil {
			return err
		}
	}
	for f, v := range in.RateCaps {
		if err := check("rate cap", f, v); err != nil {
			return err
		}
	}
	for f, v := range in.FixedRates {
		if err := check("fixed rate", f, v); err != nil {
			return err
		}
	}
	for f, v := range in.RateFloors {
		if err := check("rate floor", f, v); err != nil {
			return err
		}
	}
	for l, c := range in.Capacity {
		if math.IsNaN(c) || c < 0 {
			return fmt.Errorf("%w: capacity override for link %d is %g", ErrBadInput, l, c)
		}
	}
	return nil
}

var obsSolveVsDeadline = obs.NewValueHistogram("core.solve_vs_deadline_pct")

// Step runs one control interval's TE computation on the session: the
// policy ffcd's recompute loop and the simulator's interval loop share.
// In order it
//
//   - applies the injected controller fault, if any: a timeout starts the
//     solve with its deadline already expired, a crash panics inside the
//     simplex (through the budget hook), a stale result solves and then
//     discards the plan;
//   - solves in on the session;
//   - retries a protected solve that is infeasible (heavy faults can shrink
//     the network below the protection level) once, cold and unprotected;
//   - certifies a landed plan at the protection it achieves, with certify;
//   - names the failure, if one remains: "cancelled" (in.Budget.Ctx is
//     done), the injected fault's kind, "deadline", "infeasible",
//     "solver-error" or "uncertified";
//   - on failure, falls back to Degrade over in.Prev around in's down sets,
//     capped at in.Demands, and certifies that at core.None.
//
// certify is required: it reports whether st is congestion-free for in at
// protection prot. core cannot import the certifier, so the callers pass a
// closure over check.Certify; in.Prev must be a plan it certified, the
// precondition of Degrade's soundness.
//
// It returns the plan to install — nil when the fallback fails
// certification too, so the installed plan stays — the protection that plan
// achieves (core.None after the unprotected retry or a fallback), the reason
// ("" when the solve landed) and the final solve's stats (never nil).
func (se *Session) Step(in Input, fault *faults.SolverFaultKind, certify func(st *State, prot Protection) bool) (st *State, achieved Protection, reason string, stats *Stats) {
	if fault != nil {
		switch *fault {
		case faults.SolverTimeout:
			in.Budget.Deadline = -time.Nanosecond
		case faults.SolverCrash:
			in.Budget.Hook = func(int) { panic("core: injected solver crash") }
		}
	}
	achieved = in.Prot
	st, stats, err := se.Solve(in)
	if err != nil && stats.Outcome == OutcomeInfeasible && in.Prot != None {
		// A one-shot solve: the unprotected model has another shape, and
		// the session keeps the protected template for the next interval.
		retry := in
		retry.Prot = None
		st, stats, err = se.s.Solve(retry)
		achieved = None
	}
	switch {
	case err == nil && (fault == nil || *fault != faults.SolverStale):
		if certify(st, achieved) {
			return st, achieved, "", stats
		}
		reason = "uncertified"
	case err != nil && in.Budget.Ctx != nil && in.Budget.Ctx.Err() != nil:
		reason = "cancelled"
	case fault != nil:
		reason = fault.String()
	case stats.Outcome == OutcomeBudgetHit:
		reason = "deadline"
	case stats.Outcome == OutcomeInfeasible:
		reason = "infeasible"
	default:
		reason = "solver-error"
	}
	st = Degrade(se.s.Net, se.s.Tun, in.Prev, in.Demands, in.DownLinks, in.DownSwitches)
	if !certify(st, None) {
		st = nil
	}
	return st, None, reason, stats
}

// Degrade derives the operating configuration for a control interval whose
// TE computation missed its window (budget hit, solver crash, stale
// result): keep the last successfully installed state, drop allocation
// from tunnels that have failed since it was computed, and cap each flow's
// rate to its surviving allocation — the FFC headroom rule applied at the
// controller instead of the ingress — and to its current demand (the
// installed rate limiters persist, but flows only offer what they ask for).
//
// Soundness: ingress rescaling sends rate·alloc[t]/Σalive alloc on each
// surviving tunnel, so capping rate to Σalive alloc makes every tunnel's
// load ≤ alloc[t] ≤ the link reservations of the installed plan — the
// degraded interval is congestion-free for all faults known at degrade
// time, and retains the plan's FFC guarantee against further faults up to
// its protection level (lowering rates only relaxes Eqn 15).
func Degrade(net *topology.Network, set *tunnel.Set, last *State, dem demand.Matrix, downLinks map[topology.LinkID]bool, downSwitches map[topology.SwitchID]bool) *State {
	st := NewState()
	for f, alloc := range last.Alloc {
		na := make([]float64, len(alloc))
		var aliveSum float64
		for _, t := range set.Tunnels(f) {
			if t.Index >= len(alloc) {
				continue
			}
			if !t.Alive(net, downLinks, downSwitches) {
				continue
			}
			na[t.Index] = alloc[t.Index]
			aliveSum += alloc[t.Index]
		}
		st.Alloc[f] = na
		r := last.Rate[f]
		if r > aliveSum {
			r = aliveSum
		}
		if d := dem[f]; r > d {
			r = d
		}
		st.Rate[f] = r
	}
	return st
}
