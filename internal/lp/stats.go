package lp

import "ffc/internal/obs"

// SolveStats details the work one Solve performed. The counters are
// accumulated in plain struct fields on the simplex state as the solver
// always did — the hot loop never touches the obs layer — and published
// to the process-wide registry in one batch per solve.
type SolveStats struct {
	// Iters is total simplex pivots, dual and primal, across both primal
	// phases (== Solution.Iters).
	Iters int
	// Phase1Iters is the portion the primal simplex spent finding a
	// feasible basis; it never includes dual pivots.
	Phase1Iters int
	// DualIters is the portion the dual simplex spent re-solving a warm
	// basis (0 on a cold solve and when the warm basis was still feasible).
	DualIters int
	// Reinversions counts basis refactorizations after the initial one.
	Reinversions int
	// DevexResets counts Devex reference-framework resets forced by
	// weight overflow (per-phase initializations are not counted).
	DevexResets int
	// BlandActivations counts falls back to Bland's anti-cycling rule
	// after a long degenerate run.
	BlandActivations int
	// BoundFlips counts nonbasic bound-to-bound steps (no basis change).
	BoundFlips int
	// BasisNnz is the nonzero count of the final basis-inverse
	// representation (eta-file nonzeros for PFI, m² for dense) — the
	// fill-in proxy.
	BasisNnz int
	// Warm marks solves that successfully started from a caller-provided
	// basis (SolveFrom with a seated handle).
	Warm bool
	// FactorReused marks warm solves seated on the factorization the handle
	// carried (unchanged matrix, unused handle) instead of a fresh one.
	FactorReused bool
	// WarmRepairs always reads 0: the repair crash it counted is gone (a
	// warm basis is re-solved by the dual simplex, see DualIters). The field
	// stays only because benchmark/adapter.go names it; the next
	// benchmark-archetype PR removes it together with lp.warm_repairs.
	WarmRepairs int
	// WarmFellBack marks solves where a warm basis was provided but could
	// not be used (dimensions changed, basis singular against the current
	// matrix, dual simplex gave up) — the solve ran from the cold crash
	// instead.
	WarmFellBack bool
}

// Package-level handles into the Default registry: the publish path is a
// handful of atomic adds, allocation-free.
var (
	obsSolves       = obs.NewCounter("lp.solves")
	obsNotOptimal   = obs.NewCounter("lp.not_optimal")
	obsIters        = obs.NewCounter("lp.iters")
	obsPhase1Iters  = obs.NewCounter("lp.phase1_iters")
	obsDualIters    = obs.NewCounter("lp.dual_iters")
	obsReinversions = obs.NewCounter("lp.reinversions")
	obsDevexResets  = obs.NewCounter("lp.devex_resets")
	obsBlandActs    = obs.NewCounter("lp.bland_activations")
	obsBoundFlips   = obs.NewCounter("lp.bound_flips")
	obsBasisNnz     = obs.NewGauge("lp.basis_nnz_max")
	obsWarmSolves   = obs.NewCounter("lp.warm_solves")
	obsFactorReused = obs.NewCounter("lp.factor_reused")
	obsWarmFellBack = obs.NewCounter("lp.warm_fallbacks")
	obsBudgetHits   = obs.NewCounter("lp.budget_hits")
)

// publish pushes one solve's stats into the registry.
func (st *SolveStats) publish(status Status) {
	obsSolves.Inc()
	if status != Optimal {
		obsNotOptimal.Inc()
	}
	if status == BudgetExceeded {
		obsBudgetHits.Inc()
	}
	obsIters.Add(int64(st.Iters))
	obsPhase1Iters.Add(int64(st.Phase1Iters))
	obsDualIters.Add(int64(st.DualIters))
	obsReinversions.Add(int64(st.Reinversions))
	obsDevexResets.Add(int64(st.DevexResets))
	obsBlandActs.Add(int64(st.BlandActivations))
	obsBoundFlips.Add(int64(st.BoundFlips))
	obsBasisNnz.SetMax(int64(st.BasisNnz))
	if st.Warm {
		obsWarmSolves.Inc()
	}
	if st.FactorReused {
		obsFactorReused.Inc()
	}
	if st.WarmFellBack {
		obsWarmFellBack.Inc()
	}
}
