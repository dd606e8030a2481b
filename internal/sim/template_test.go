package sim

import (
	"reflect"
	"testing"

	"ffc/internal/core"
	"ffc/internal/faults"
)

// TestTemplateInvariantUnderSolverFaults runs a fault-injected,
// warm-started control loop twice and requires identical outcomes —
// including the degraded intervals, where the loop falls back to the
// last-good plan around a timed-out, crashed, or stale solve while the
// session keeps its model template and basis. (That rebinding the template
// equals a fresh formulation bit for bit, failed solves included, is
// core.TestSessionTemplateMatchesScratchSolve.)
func TestTemplateInvariantUnderSolverFaults(t *testing.T) {
	sc := quietScenario(t, 23, 8, 0.9)
	cfg := RunConfig{
		Prot:      core.Protection{Ke: 1},
		WarmStart: true,
		SolverFaults: faults.SolverFaultModel{
			Force: map[int]faults.SolverFaultKind{
				2: faults.SolverStale,
				4: faults.SolverTimeout,
				6: faults.SolverCrash,
			},
		},
	}
	var ref *Result
	for run := 0; run < 2; run++ {
		res, err := Run(sc, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.DegradedIntervals != 3 {
			t.Fatalf("run %d: DegradedIntervals = %d, want 3", run, res.DegradedIntervals)
		}
		// Wall-clock metrics differ run to run; compare everything the
		// controller's decisions and the data plane produced.
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Timeline, ref.Timeline) {
			t.Fatal("timeline differs between identical runs")
		}
		if res.Total != ref.Total {
			t.Fatalf("totals differ: %+v vs %+v", res.Total, ref.Total)
		}
		if res.Reactions != ref.Reactions {
			t.Fatalf("reactions differ (%d vs %d)", res.Reactions, ref.Reactions)
		}
	}
}
