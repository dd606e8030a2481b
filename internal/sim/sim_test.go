package sim

import (
	"math/rand"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// testScenario builds a small but nontrivial scenario: an L-Net-scaled-down
// topology with calibrated demands.
func testScenario(t testing.TB, seed int64, intervals int, scale float64) Scenario {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := topology.LNet(topology.LNetConfig{Sites: 6}, rng)
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

func TestCalibrationHitsTarget(t *testing.T) {
	sc := testScenario(t, 1, 6, 1.0)
	// At scale 1, plain TE should satisfy ≈99% of demand on the sampled
	// intervals.
	solver := core.NewSolver(sc.Net, sc.Tun, core.Options{})
	var granted, offered float64
	for _, m := range sc.Series[:3] {
		st, _, err := solver.Solve(core.Input{Demands: m})
		if err != nil {
			t.Fatal(err)
		}
		granted += st.TotalRate()
		offered += m.Total()
	}
	frac := granted / offered
	if frac < 0.96 || frac > 1.0+1e-9 {
		t.Fatalf("satisfaction at scale 1 = %v, want ≈ 0.99", frac)
	}
}

func TestRunBaselineVsFFC(t *testing.T) {
	sc := testScenario(t, 2, 10, 1.0)
	// Crank failure rates so the short run actually sees faults.
	sc.Failures.LinkMTBF = 10 * time.Minute

	base, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ffc, err := Run(sc, RunConfig{Prot: core.Protection{Kc: 2, Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Intervals != 10 || ffc.Intervals != 10 {
		t.Fatalf("interval counts: %d/%d", base.Intervals, ffc.Intervals)
	}
	if base.Total.GrantedBytes <= 0 {
		t.Fatal("baseline granted nothing")
	}
	// FFC grants at most the baseline (overhead ≥ 0) and loses at most
	// what the baseline loses.
	if r := ffc.ThroughputRatioVs(base); r > 1.0+1e-6 || r < 0.3 {
		t.Fatalf("throughput ratio %v implausible", r)
	}
	if ffc.Total.LossBytes > base.Total.LossBytes+1e-6 {
		t.Fatalf("FFC lost more than baseline: %v vs %v", ffc.Total.LossBytes, base.Total.LossBytes)
	}
	// Identical seeds ⇒ deterministic repeat.
	again, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Total.LossBytes != base.Total.LossBytes || again.Total.GrantedBytes != base.Total.GrantedBytes {
		t.Fatal("simulation not deterministic")
	}
}

func TestRunAccountingConsistency(t *testing.T) {
	sc := testScenario(t, 3, 8, 1.0)
	sc.Failures.LinkMTBF = 15 * time.Minute
	res, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := res.Total.LossBytes - (res.Total.BlackholeBytes + res.Total.CongestionBytes); diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("loss %v != blackhole %v + congestion %v",
			res.Total.LossBytes, res.Total.BlackholeBytes, res.Total.CongestionBytes)
	}
	if res.Total.DeliveredBytes() > res.Total.GrantedBytes {
		t.Fatal("delivered exceeds granted")
	}
	if res.Total.GrantedBytes > res.Total.DemandBytes+1e-6 {
		t.Fatalf("granted %v exceeds demand %v", res.Total.GrantedBytes, res.Total.DemandBytes)
	}
	if res.SolveTime.N() != 8 {
		t.Fatalf("solve time samples %d, want 8", res.SolveTime.N())
	}
}

func TestRunNoFaultsNoLoss(t *testing.T) {
	sc := testScenario(t, 4, 5, 0.5)
	sc.Failures = faults.FailureModel{} // disabled
	sc.Switches = faults.Optimistic()   // no config failures
	res, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.LossBytes != 0 {
		t.Fatalf("loss %v without any faults", res.Total.LossBytes)
	}
	if res.MaxOversub.Max() != 0 {
		t.Fatalf("oversubscription %v without faults", res.MaxOversub.Max())
	}
}

func TestRunMultiPriority(t *testing.T) {
	sc := testScenario(t, 5, 8, 1.0)
	sc.Failures.LinkMTBF = 10 * time.Minute
	rng := rand.New(rand.NewSource(42))
	splits := demand.RandomSplits(sc.Series.Flows(), rng)
	multi := &PriorityConfig{Splits: splits}
	multi.Prot[demand.High] = core.Protection{Kc: 3, Ke: 3}
	multi.Prot[demand.Med] = core.Protection{Kc: 2, Ke: 1}
	multi.Prot[demand.Low] = core.None

	res, err := Run(sc, RunConfig{Multi: multi})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByPriority[demand.High].GrantedBytes <= 0 ||
		res.ByPriority[demand.Med].GrantedBytes <= 0 ||
		res.ByPriority[demand.Low].GrantedBytes <= 0 {
		t.Fatalf("some class granted nothing: %+v", res.ByPriority)
	}
	// The paper's headline: high-priority loss is (near) zero while lower
	// classes absorb the damage.
	highLossFrac := res.ByPriority[demand.High].LossBytes / (res.Total.LossBytes + 1e-12)
	if res.Total.LossBytes > 0 && highLossFrac > 0.05 {
		t.Fatalf("high-priority carries %.1f%% of loss; want ≈ 0", highLossFrac*100)
	}
	total := res.ByPriority[demand.High].LossBytes + res.ByPriority[demand.Med].LossBytes + res.ByPriority[demand.Low].LossBytes
	if diff := total - res.Total.LossBytes; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("per-class losses %v don't sum to total %v", total, res.Total.LossBytes)
	}

	// §8.4's headline: total multi-priority throughput stays close to the
	// unprotected cascade because lower classes reuse protection headroom.
	base, err := Run(sc, RunConfig{Multi: &PriorityConfig{Splits: splits}})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.ThroughputRatioVs(base); ratio < 0.85 {
		t.Fatalf("multi-priority throughput ratio %v; want near 1 (§8.4)", ratio)
	}
}

func TestOversubDataFaults(t *testing.T) {
	sc := testScenario(t, 6, 6, 1.0)
	d1, err := OversubDataFaults(sc, core.None, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := OversubDataFaults(sc, core.None, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if d1.N() != 6 || d3.N() != 6 {
		t.Fatalf("sample counts %d/%d", d1.N(), d3.N())
	}
	// More failures can only hurt (in distribution): compare means.
	if d3.Mean() < d1.Mean()-1e-9 {
		t.Fatalf("3-link mean oversub %v < 1-link %v", d3.Mean(), d1.Mean())
	}
	// FFC ke=1 must zero the single-failure oversubscription.
	f1, err := OversubDataFaults(sc, core.Protection{Ke: 1}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Max() > 1e-6 {
		t.Fatalf("FFC ke=1 still oversubscribes: %v%%", f1.Max())
	}
}

func TestOversubSwitchFault(t *testing.T) {
	sc := testScenario(t, 7, 5, 1.0)
	d, err := OversubDataFaults(sc, core.None, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 5 {
		t.Fatalf("samples %d", d.N())
	}
}

func TestOversubControlFaults(t *testing.T) {
	sc := testScenario(t, 8, 8, 1.0)
	base, err := OversubControlFaults(sc, core.None, 2)
	if err != nil {
		t.Fatal(err)
	}
	if base.N() != 7 { // first interval has no previous config
		t.Fatalf("samples %d, want 7", base.N())
	}
	ffc, err := OversubControlFaults(sc, core.Protection{Kc: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ffc.Max() > 1e-6 {
		t.Fatalf("FFC kc=2 still oversubscribes under 2 stale switches: %v%%", ffc.Max())
	}
}

func TestSimulateUpdateExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	model := faults.Optimistic()
	base := UpdateExecConfig{Steps: 3, Switches: 12, Kc: 0, Model: model}
	ffc := base
	ffc.Kc = 2
	var baseSum, ffcSum time.Duration
	const n = 100
	for i := 0; i < n; i++ {
		baseSum += SimulateUpdateExecution(base, rng)
		ffcSum += SimulateUpdateExecution(ffc, rng)
	}
	if ffcSum >= baseSum {
		t.Fatalf("FFC updates not faster: %v vs %v", ffcSum/n, baseSum/n)
	}
	if baseSum/n <= 0 {
		t.Fatal("zero baseline update time")
	}
}

func TestSimulateUpdateExecutionRealisticStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	model := faults.Realistic()
	cfg := UpdateExecConfig{Steps: 3, Switches: 30, Kc: 0, Model: model, Deadline: 300 * time.Second}
	stalled := 0
	const n = 120
	for i := 0; i < n; i++ {
		if SimulateUpdateExecution(cfg, rng) >= cfg.Deadline {
			stalled++
		}
	}
	// The paper: ~40% of non-FFC updates miss the 300 s deadline under the
	// Realistic model. Accept a broad band.
	frac := float64(stalled) / n
	if frac < 0.05 {
		t.Fatalf("only %.0f%% of realistic updates stalled; model too optimistic", frac*100)
	}
	ffc := cfg
	ffc.Kc = 2
	fst := 0
	for i := 0; i < n; i++ {
		if SimulateUpdateExecution(ffc, rng) >= ffc.Deadline {
			fst++
		}
	}
	if fst >= stalled {
		t.Fatalf("FFC stalls (%d) not fewer than baseline (%d)", fst, stalled)
	}
}

func TestScaleSeries(t *testing.T) {
	s := demand.Series{demand.Matrix{tunnel.Flow{Src: 0, Dst: 1}: 2}}
	out := s.Scale(3)
	if out[0][tunnel.Flow{Src: 0, Dst: 1}] != 6 {
		t.Fatal("scale wrong")
	}
	if s[0][tunnel.Flow{Src: 0, Dst: 1}] != 2 {
		t.Fatal("original mutated")
	}
}

func TestTimelineRecords(t *testing.T) {
	sc := testScenario(t, 11, 6, 0.8)
	sc.Failures.LinkMTBF = 8 * time.Minute
	res, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 6 {
		t.Fatalf("%d timeline records, want 6", len(res.Timeline))
	}
	var lost, granted float64
	faultsSeen := 0
	for i, rec := range res.Timeline {
		if rec.Demand <= 0 || rec.Granted <= 0 {
			t.Fatalf("record %d: demand %v granted %v", i, rec.Demand, rec.Granted)
		}
		if rec.Granted > rec.Demand+1e-6 {
			t.Fatalf("record %d: granted exceeds demand", i)
		}
		lost += rec.Lost
		granted += rec.Granted * interval.Seconds()
		faultsSeen += rec.LinkFaults + rec.SwitchFaults
	}
	if diff := lost - res.Total.LossBytes; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("timeline losses %v != total %v", lost, res.Total.LossBytes)
	}
	if diff := granted - res.Total.GrantedBytes; diff > 1e-3 || diff < -1e-3 {
		t.Fatalf("timeline granted %v != total %v", granted, res.Total.GrantedBytes)
	}
	if faultsSeen == 0 {
		t.Fatal("no faults recorded at an 8-minute MTBF over 30 minutes; suspicious")
	}
}

func TestNoCarryover(t *testing.T) {
	sc := testScenario(t, 12, 4, 2.0) // scale 2: demand always exceeds capacity
	sc.Failures = faults.FailureModel{}
	sc.Switches = faults.Optimistic()
	with, err := Run(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(sc, RunConfig{NoCarryover: true})
	if err != nil {
		t.Fatal(err)
	}
	// Carryover inflates later intervals' demand; without it, demand is
	// exactly the series'.
	if with.Total.DemandBytes <= without.Total.DemandBytes {
		t.Fatalf("carryover should inflate demand: %v vs %v",
			with.Total.DemandBytes, without.Total.DemandBytes)
	}
	var offered float64
	for _, m := range sc.Series {
		offered += m.Total() * interval.Seconds()
	}
	if diff := without.Total.DemandBytes - offered; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("NoCarryover demand %v != offered %v", without.Total.DemandBytes, offered)
	}
}
