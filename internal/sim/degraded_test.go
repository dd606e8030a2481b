package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// quietScenario is testScenario with constant demands and every organic
// fault source disabled, so injected controller faults are the only events.
func quietScenario(t testing.TB, seed int64, intervals int, scale float64) Scenario {
	t.Helper()
	sc := testScenario(t, seed, intervals, scale)
	for i := range sc.Series {
		sc.Series[i] = sc.Series[0].Clone()
	}
	sc.Failures = faults.FailureModel{}
	sc.Switches = faults.SwitchModel{}
	return sc
}

func TestDegradedIntervalReusesLastGood(t *testing.T) {
	sc := quietScenario(t, 11, 8, 0.9)
	cfg := RunConfig{
		Prot:        core.Protection{Ke: 1},
		NoCarryover: true,
		SolverFaults: faults.SolverFaultModel{
			Force: map[int]faults.SolverFaultKind{3: faults.SolverTimeout},
		},
	}
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedIntervals != 1 {
		t.Fatalf("DegradedIntervals = %d, want 1", res.DegradedIntervals)
	}
	for i, rec := range res.Timeline {
		want := ""
		if i == 3 {
			want = "timeout"
		}
		if rec.Degraded != want {
			t.Fatalf("interval %d Degraded = %q, want %q", i, rec.Degraded, want)
		}
	}
	// The timed-out interval must not have produced a fresh solve: one
	// SolveTime sample per interval except the degraded one.
	if got := res.SolveTime.N(); got != len(sc.Series)-1 {
		t.Fatalf("SolveTime samples = %d, want %d (degraded interval must not solve)", got, len(sc.Series)-1)
	}
	// Degraded-interval equivalence: with nothing failed, interval 3 serves
	// exactly interval 2's installed allocation.
	if d := math.Abs(res.Timeline[3].Granted - res.Timeline[2].Granted); d > 1e-9 {
		t.Fatalf("degraded interval granted %v, previous interval %v (diff %g)",
			res.Timeline[3].Granted, res.Timeline[2].Granted, d)
	}
	// Serving the last-good plan under no faults is congestion-free.
	if res.Timeline[3].MaxOversub != 0 {
		t.Fatalf("degraded interval oversubscribed: %v", res.Timeline[3].MaxOversub)
	}
	if res.DegradedOversub.N() != 1 || res.DegradedOversub.Max() != 0 {
		t.Fatalf("DegradedOversub = %+v, want one zero sample", res.DegradedOversub)
	}
}

func TestDegradedCrashAndStale(t *testing.T) {
	sc := quietScenario(t, 12, 7, 0.9)
	cfg := RunConfig{
		Prot:        core.Protection{Ke: 1},
		NoCarryover: true,
		SolverFaults: faults.SolverFaultModel{
			Force: map[int]faults.SolverFaultKind{
				2: faults.SolverCrash,
				4: faults.SolverStale,
			},
		},
	}
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedIntervals != 2 {
		t.Fatalf("DegradedIntervals = %d, want 2", res.DegradedIntervals)
	}
	if res.Timeline[2].Degraded != "crash" || res.Timeline[4].Degraded != "stale" {
		t.Fatalf("reasons = %q, %q; want crash, stale", res.Timeline[2].Degraded, res.Timeline[4].Degraded)
	}
	// Both degraded intervals serve the prior interval's plan.
	for _, i := range []int{2, 4} {
		if d := math.Abs(res.Timeline[i].Granted - res.Timeline[i-1].Granted); d > 1e-9 {
			t.Fatalf("interval %d granted %v, want prior interval's %v",
				i, res.Timeline[i].Granted, res.Timeline[i-1].Granted)
		}
	}
	// A stale plan was computed (and timed) even though it wasn't installed;
	// the crashed interval produced no timing sample.
	if got := res.SolveTime.N(); got != len(sc.Series)-1 {
		t.Fatalf("SolveTime samples = %d, want %d", got, len(sc.Series)-1)
	}
}

// snetScenario builds the paper's S-Net with calibrated demands — the
// acceptance-criteria substrate for controller-fault injection.
func snetScenario(t testing.TB, seed int64, intervals int, scale float64) Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := topology.SNet()
	series := demand.Generate(net, demand.Config{Intervals: intervals}, rng)
	flows := series.Flows()
	tun := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 4})
	solver := core.NewSolver(net, tun, core.Options{})
	k, err := core.CalibrateScale(solver, series, 0.99, 3)
	if err != nil {
		t.Fatalf("calibrate: %v", err)
	}
	return Scenario{
		Net: net, Tun: tun,
		Series:   series.Scale(k * scale),
		Failures: faults.LNetFailures(),
		Switches: faults.Realistic(),
		Seed:     seed + 1000,
	}
}

// TestSNetInjectedTimeouts is the PR's acceptance scenario: solver timeouts
// on 10% of S-Net intervals (2 of 20, pinned for determinism), organic
// data-plane faults active. The sim must complete without panics, every
// degraded interval reuses the last-good allocation, and degraded-interval
// oversubscription stays within the FFC guarantee for the configured k.
func TestSNetInjectedTimeouts(t *testing.T) {
	const intervals = 20
	sc := snetScenario(t, 21, intervals, 0.9)
	prot := core.Protection{Ke: 1}
	cfg := RunConfig{
		Prot: prot,
		SolverFaults: faults.SolverFaultModel{
			Force: map[int]faults.SolverFaultKind{
				4:  faults.SolverTimeout,
				14: faults.SolverTimeout,
			},
		},
	}
	res, err := Run(sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals != intervals {
		t.Fatalf("completed %d intervals, want %d", res.Intervals, intervals)
	}
	if res.DegradedIntervals != 2 {
		t.Fatalf("DegradedIntervals = %d, want 2", res.DegradedIntervals)
	}
	for i, rec := range res.Timeline {
		if (i == 4 || i == 14) != (rec.Degraded != "") {
			t.Fatalf("interval %d Degraded = %q", i, rec.Degraded)
		}
		if rec.Degraded == "" {
			continue
		}
		// FFC guarantee on a degraded interval: congestion-free as long as
		// the faults not already routed around (those striking the previous
		// interval, after its plan, and this one) stay within k and no
		// switch serves a stale configuration.
		newFaults := rec.LinkFaults + res.Timeline[i-1].LinkFaults
		if rec.SwitchFaults+res.Timeline[i-1].SwitchFaults == 0 &&
			newFaults <= prot.Ke && rec.StaleSwitches == 0 {
			if rec.MaxOversub > 1e-7 {
				t.Fatalf("degraded interval %d oversubscribed %v within the protection level",
					i, rec.MaxOversub)
			}
		}
	}
}

// TestSolverFaultSoak hammers the fault-injected control loop — random
// timeouts, crashes, and stale results on top of organic data-plane faults
// — and checks the run always completes with coherent accounting. Run with -race in CI.
func TestSolverFaultSoak(t *testing.T) {
	sc := testScenario(t, 31, 10, 1.0)
	sc.Failures.LinkMTBF = 10 * time.Minute
	model := faults.SolverFaultModel{TimeoutRate: 0.2, CrashRate: 0.1, StaleRate: 0.1}
	cfgs := []RunConfig{
		{SolverFaults: model},
		{Prot: core.Protection{Ke: 1}, SolverFaults: model},
		{Prot: core.Protection{Kc: 1, Ke: 1}, SolverFaults: model},
		{Prot: core.Protection{Ke: 1}, SolverDeadline: 50 * time.Millisecond, SolverFaults: model},
	}
	results, err := RunMany(sc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Intervals != 10 {
			t.Fatalf("cfg %d: %d intervals", i, res.Intervals)
		}
		degraded := 0
		for _, rec := range res.Timeline {
			if rec.Degraded != "" {
				degraded++
			}
		}
		if degraded != res.DegradedIntervals {
			t.Fatalf("cfg %d: timeline shows %d degraded intervals, result says %d",
				i, degraded, res.DegradedIntervals)
		}
		if res.DegradedOversub.N() != res.DegradedIntervals {
			t.Fatalf("cfg %d: %d oversub samples for %d degraded intervals",
				i, res.DegradedOversub.N(), res.DegradedIntervals)
		}
		if res.Total.GrantedBytes < 0 || res.Total.LossBytes < 0 {
			t.Fatalf("cfg %d: negative accounting: %+v", i, res.Total)
		}
	}
	// The rates are high enough that at least one run must have degraded.
	anyDegraded := false
	for _, res := range results {
		if res.DegradedIntervals > 0 {
			anyDegraded = true
		}
	}
	if !anyDegraded {
		t.Fatalf("no run degraded despite 40%% injection rates")
	}
}
