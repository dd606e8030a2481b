package sim

import (
	"math"
	"testing"

	"ffc/internal/core"
)

// TestWarmStartMatchesColdRun replays each interval the session-backed
// loop installed (recorded through RunConfig.OnPlan) with a cold
// Solver.Solve of the recorded input and checks the granted throughput
// agrees. The comparison is tolerance-based, not bit-exact, by design: a
// warm re-solve may land on a different vertex among alternate optima, so
// per-flow allocations (and hence loss under faults) can legitimately
// differ — but granted throughput is an optimal-value quantity and must
// match. NoCarryover keeps interval demands independent of the chosen
// vertex; Kc is 0 so the previous state does not feed back into the LP.
func TestWarmStartMatchesColdRun(t *testing.T) {
	sc := testScenario(t, 33, 8, 1.0)
	solver := core.NewSolver(sc.Net, sc.Tun, core.Options{})
	for _, prot := range []core.Protection{core.None, {Ke: 1}, {Ke: 2, Kv: 1}} {
		var recs []PlanRecord
		res, err := Run(sc, RunConfig{Prot: prot, NoCarryover: true, OnPlan: func(pr PlanRecord) { recs = append(recs, pr) }})
		if err != nil {
			t.Fatalf("prot %v: %v", prot, err)
		}
		if len(recs) != res.Intervals || res.DegradedIntervals != 0 {
			t.Fatalf("prot %v: %d records, %d intervals, %d degraded", prot, len(recs), res.Intervals, res.DegradedIntervals)
		}
		for _, pr := range recs {
			cold, _, err := solver.Solve(core.Input{
				Demands: pr.Demands, Prot: pr.Prot, Prev: pr.Prev,
				DownLinks: pr.DownLinks, DownSwitches: pr.DownSwitches,
			})
			if err != nil {
				t.Fatalf("prot %v interval %d: cold solve: %v", prot, pr.Interval, err)
			}
			c, w := cold.TotalRate(), pr.State.TotalRate()
			if math.Abs(c-w) > 1e-6*(1+c) {
				t.Fatalf("prot %v interval %d: granted %g (cold) vs %g (session)", prot, pr.Interval, c, w)
			}
		}
	}
}

// TestWarmStartCarryoverStaysFeasible exercises the full accounting path
// (carryover, faults, losses) of the session-backed loop: totals must stay
// within the physically meaningful envelope even though vertex choices may
// reshape the per-interval loss breakdown relative to a cold run.
func TestWarmStartCarryoverStaysFeasible(t *testing.T) {
	sc := testScenario(t, 34, 8, 1.0)
	res, err := Run(sc, RunConfig{Prot: core.Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != 8 {
		t.Fatalf("intervals %d, want 8", res.Intervals)
	}
	if res.Total.GrantedBytes <= 0 || res.Total.GrantedBytes > res.Total.DemandBytes+1e-6 {
		t.Fatalf("granted %g outside (0, demand=%g]", res.Total.GrantedBytes, res.Total.DemandBytes)
	}
	if res.Total.LossBytes < 0 || res.Total.LossBytes > res.Total.GrantedBytes+1e-6 {
		t.Fatalf("loss %g outside [0, granted=%g]", res.Total.LossBytes, res.Total.GrantedBytes)
	}
}
