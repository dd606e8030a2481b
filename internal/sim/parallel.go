package sim

import (
	"ffc/internal/core"
	"ffc/internal/parallel"
)

// RunMany executes several run configurations of the same scenario
// concurrently (runtime.GOMAXPROCS(0) workers). The §8 comparisons replay
// identical fault sequences under different TE approaches; each replay is
// fully independent (its own RNG, solver, and accounting), so they
// parallelize perfectly. Results are returned in cfgs order; the first
// error, in cfgs order, aborts the batch.
func RunMany(sc Scenario, cfgs []RunConfig) ([]*Result, error) {
	out := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	parallel.ForEach(len(cfgs), func(i int) {
		out[i], errs[i] = Run(sc, cfgs[i])
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// solveSeries computes one TE state per interval of series. When the
// protection level chains intervals through the previous state (Kc > 0,
// whose control-plane constraints are relative to the prior configuration)
// the intervals are solved serially; otherwise each interval is independent
// and they are fanned out over workers. Either way the returned states are
// identical — the simplex is deterministic per input.
func solveSeries(solver *core.Solver, sc Scenario, prot core.Protection) ([]*core.State, error) {
	states := make([]*core.State, len(sc.Series))
	if prot.Kc > 0 {
		prev := core.NewState()
		for t, m := range sc.Series {
			st, _, err := solver.Solve(core.Input{Demands: m, Prot: prot, Prev: prev})
			if err != nil {
				return nil, err
			}
			states[t] = st
			prev = st
		}
		return states, nil
	}
	errs := make([]error, len(sc.Series))
	parallel.ForEach(len(sc.Series), func(t int) {
		states[t], _, errs[t] = solver.Solve(core.Input{Demands: sc.Series[t], Prot: prot})
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	return states, nil
}
