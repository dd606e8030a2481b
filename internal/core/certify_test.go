package core_test

// Tests that hold solver plans to the guarantees FFC promises. Each plan is
// certified by exhaustive enumeration with internal/check, which imports
// core — hence the external test package; export_test.go shares core's
// fixtures with it.

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// certify certifies st exactly at p's protection level and fails the test
// if the certifier rejects its inputs. prev is the plan stale switches keep
// (needed for kc > 0; pass st when there is none).
func certify(t *testing.T, net *topology.Network, tun *tunnel.Set, st, prev *core.State, p check.Params) *check.Certificate {
	t.Helper()
	p.Mode = check.Exact
	cert, err := check.Certify(net, tun, st, prev, p)
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// fig3Prev is the installed plan of Figure 3(a): {s2,s3}→s4 send 7 units
// direct and 3 via s1.
func fig3Prev(fx core.Fig25) *core.State {
	prev := core.NewState()
	prev.Rate[fx.F24], prev.Alloc[fx.F24] = 10, []float64{7, 3}
	prev.Rate[fx.F34], prev.Alloc[fx.F34] = 10, []float64{7, 3}
	return prev
}

// TestControlPlaneFFCPaperNumbers reproduces Figures 3 and 5 exactly: with
// the old configuration splitting {s2,s3}→s4 as 7 direct + 3 via s1, the
// admissible new flow s1→s4 is 10 without FFC, 7 with kc=1, 4 with kc=2.
func TestControlPlaneFFCPaperNumbers(t *testing.T) {
	fx := core.NewFig25(t)
	prev := fig3Prev(fx)
	demands := demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 10}

	for _, tc := range []struct {
		kc   int
		want float64
	}{
		{0, 10}, {1, 7}, {2, 4},
	} {
		s := core.NewSolver(fx.Net, fx.Tun, core.Options{})
		prot := core.Protection{Kc: tc.kc}
		st, _, err := s.Solve(core.Input{Demands: demands, Prot: prot, Prev: prev})
		if err != nil {
			t.Fatalf("kc=%d: %v", tc.kc, err)
		}
		if math.Abs(st.Rate[fx.F14]-tc.want) > 1e-6 {
			t.Fatalf("kc=%d: new flow admitted %v, want %v", tc.kc, st.Rate[fx.F14], tc.want)
		}
		// Existing flows keep their rates (the optimum of the walkthrough).
		if math.Abs(st.Rate[fx.F24]-10) > 1e-6 || math.Abs(st.Rate[fx.F34]-10) > 1e-6 {
			t.Fatalf("kc=%d: existing flows got %v/%v, want 10/10", tc.kc, st.Rate[fx.F24], st.Rate[fx.F34])
		}
		// And the computed state must certify exhaustively.
		if cert := certify(t, fx.Net, fx.Tun, st, prev, check.Params{Prot: prot}); !cert.OK {
			t.Fatalf("kc=%d: %s", tc.kc, cert.Summary())
		}
	}
}

// TestControlPlaneNonFFCUnsafe shows that the kc=0 solution genuinely
// violates the kc=1 guarantee (the situation of Figure 3(c)).
func TestControlPlaneNonFFCUnsafe(t *testing.T) {
	fx := core.NewFig25(t)
	prev := fig3Prev(fx)
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	st, _, err := s.Solve(core.Input{Demands: demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if cert := certify(t, fx.Net, fx.Tun, st, prev, check.Params{Prot: core.Protection{Kc: 1}}); cert.OK {
		t.Fatal("non-FFC plan unexpectedly safe under one stale switch")
	}
}

// TestDataPlaneFFCFig24 reproduces the Figure 2/4 situation: without FFC a
// 14-unit flow overloads s1−s4 after its direct link fails; with ke=1 the
// network stays congestion-free in every single-failure case.
func TestDataPlaneFFCFig24(t *testing.T) {
	fx := core.NewFig25(t)
	demands := demand.Matrix{fx.F24: 14, fx.F34: 6}
	ke1 := check.Params{Prot: core.Protection{Ke: 1}}

	plain := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	stPlain, _, err := plain.Solve(core.Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stPlain.TotalRate()-20) > 1e-6 {
		t.Fatalf("plain throughput %v, want 20", stPlain.TotalRate())
	}
	if cert := certify(t, fx.Net, fx.Tun, stPlain, stPlain, ke1); cert.OK {
		t.Fatal("plain TE unexpectedly survives all single link failures")
	}

	ffc := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	stFFC, _, err := ffc.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if cert := certify(t, fx.Net, fx.Tun, stFFC, stFFC, ke1); !cert.OK {
		t.Fatalf("FFC state violates ke=1 guarantee: %s", cert.Summary())
	}
	// With 2 tunnels per flow and τ=1, every admitted unit must fit on
	// both tunnels; shared link s1−s4 caps total at 10.
	if math.Abs(stFFC.TotalRate()-10) > 1e-6 {
		t.Fatalf("FFC throughput %v, want 10", stFFC.TotalRate())
	}
}

func TestDataPlaneSwitchFailureProtection(t *testing.T) {
	fx := core.NewFig25(t)
	// kv=1 with q: via-s1 tunnels die when s1 fails; τ = 2 − q(=1) = 1.
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	prot := core.Protection{Kv: 1}
	st, _, err := s.Solve(core.Input{Demands: demand.Matrix{fx.F24: 14, fx.F34: 6}, Prot: prot})
	if err != nil {
		t.Fatal(err)
	}
	if cert := certify(t, fx.Net, fx.Tun, st, st, check.Params{Prot: prot}); !cert.OK {
		t.Fatalf("kv=1 guarantee violated: %s", cert.Summary())
	}
}

// TestFFCPropertyRandom is the central guarantee test: on random small
// networks with random demands and protection levels, the computed state
// must survive exhaustive fault enumeration (Lemma 1 + §4.4.1 soundness).
func TestFFCPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		net, tun, flows := core.RandomNetwork(rng, 5+rng.Intn(3), 2+rng.Intn(3))
		if len(flows) == 0 {
			continue
		}
		demands := demand.Matrix{}
		for _, f := range flows {
			demands[f] = 1 + rng.Float64()*9
		}
		prot := core.Protection{Ke: rng.Intn(3), Kv: rng.Intn(2)}
		s := core.NewSolver(net, tun, core.Options{Encoding: core.Encoding(rng.Intn(2))})
		st, _, err := s.Solve(core.Input{Demands: demands, Prot: prot})
		if err != nil {
			t.Fatalf("trial %d prot %v: %v", trial, prot, err)
		}
		if cert := certify(t, net, tun, st, st, check.Params{Prot: prot}); !cert.OK {
			t.Fatalf("trial %d prot %v: guarantee violated: %s", trial, prot, cert.Summary())
		}
	}
}

// TestControlFFCPropertyRandom does the same for control-plane faults:
// solve plain TE for interval 1, then FFC TE for interval 2's demands,
// and certify every ≤kc stale-switch combination.
func TestControlFFCPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 20; trial++ {
		net, tun, flows := core.RandomNetwork(rng, 5+rng.Intn(3), 2+rng.Intn(2))
		if len(flows) == 0 {
			continue
		}
		d1, d2 := demand.Matrix{}, demand.Matrix{}
		for _, f := range flows {
			d1[f] = 1 + rng.Float64()*8
			d2[f] = 1 + rng.Float64()*8
		}
		s := core.NewSolver(net, tun, core.Options{})
		prev, _, err := s.Solve(core.Input{Demands: d1})
		if err != nil {
			t.Fatalf("trial %d: prev solve: %v", trial, err)
		}
		kc := 1 + rng.Intn(2)
		mode := core.RateLimiterMode(rng.Intn(3))
		s2 := core.NewSolver(net, tun, core.Options{RateLimiter: mode, Encoding: core.Encoding(rng.Intn(2))})
		st, _, err := s2.Solve(core.Input{Demands: d2, Prot: core.Protection{Kc: kc}, Prev: prev})
		if err != nil {
			t.Fatalf("trial %d kc=%d mode=%d: %v", trial, kc, mode, err)
		}
		if cert := certify(t, net, tun, st, prev, check.Params{Prot: core.Protection{Kc: kc}, RateLimiter: mode}); !cert.OK {
			t.Fatalf("trial %d kc=%d mode=%d: %s", trial, kc, mode, cert.Summary())
		}
	}
}

func TestMiceOptimization(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	net, tun, flows := core.RandomNetwork(rng, 7, 5)
	demands := demand.Matrix{}
	for i, f := range flows {
		if i == 0 {
			demands[f] = 100 // elephant
		} else {
			demands[f] = 0.05 // mice
		}
	}
	ke1 := core.Protection{Ke: 1}
	withMice := core.NewSolver(net, tun, core.Options{MiceFraction: 0.01})
	st, stats, err := withMice.Solve(core.Input{Demands: demands, Prot: ke1})
	if err != nil {
		t.Fatal(err)
	}
	// Guarantee must still hold with the shortcut.
	if cert := certify(t, net, tun, st, st, check.Params{Prot: ke1}); !cert.OK {
		t.Fatalf("mice shortcut broke the guarantee: %s", cert.Summary())
	}
	without := core.NewSolver(net, tun, core.Options{})
	st2, stats2, err := without.Solve(core.Input{Demands: demands, Prot: ke1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Vars >= stats2.Vars {
		t.Fatalf("mice shortcut did not reduce variables: %d vs %d", stats.Vars, stats2.Vars)
	}
	if st.TotalRate() < st2.TotalRate()-0.2 {
		t.Fatalf("mice shortcut lost too much throughput: %v vs %v", st.TotalRate(), st2.TotalRate())
	}
}

func TestMinMLUWithControlFFC(t *testing.T) {
	fx := core.NewFig25(t)
	prev := fig3Prev(fx)
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{Objective: core.MinMLU})
	prot := core.Protection{Kc: 2}
	st, stats, err := s.Solve(core.Input{
		Demands: demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 4},
		Prot:    prot,
		Prev:    prev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MLU > 1+1e-6 {
		t.Fatalf("MLU %v, want ≤ 1 (fits as shown by the throughput test)", stats.MLU)
	}
	if cert := certify(t, fx.Net, fx.Tun, st, prev, check.Params{Prot: prot}); !cert.OK {
		t.Fatalf("MinMLU control FFC violated: %s", cert.Summary())
	}
}

// TestCombinedProtectionProperty verifies §4.5: a single solve with
// (kc, ke, kv) simultaneously satisfies both planes' guarantees.
func TestCombinedProtectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		net, tun, flows := core.RandomNetwork(rng, 6, 4)
		if len(flows) == 0 {
			continue
		}
		d1, d2 := demand.Matrix{}, demand.Matrix{}
		for _, f := range flows {
			d1[f] = 1 + rng.Float64()*6
			d2[f] = 1 + rng.Float64()*6
		}
		s := core.NewSolver(net, tun, core.Options{Encoding: core.Encoding(rng.Intn(2))})
		prev, _, err := s.Solve(core.Input{Demands: d1})
		if err != nil {
			t.Fatal(err)
		}
		prot := core.Protection{Kc: 1 + rng.Intn(2), Ke: 1, Kv: rng.Intn(2)}
		st, _, err := s.Solve(core.Input{Demands: d2, Prot: prot, Prev: prev})
		if err != nil {
			t.Fatalf("trial %d %v: %v", trial, prot, err)
		}
		if cert := certify(t, net, tun, st, prev, check.Params{Prot: prot}); !cert.OK {
			t.Fatalf("trial %d %v: %s", trial, prot, cert.Summary())
		}
	}
}

// TestEqn15OverprotectionEffect validates the §4.4.1 observation: with a
// (1,q) layout, protecting ke=q link failures also covers one switch
// failure "for free" (kt = ke·p ≥ kv·q tunnel failures).
func TestEqn15OverprotectionEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 6; trial++ {
		net, tun, flows := core.RandomNetwork(rng, 7, 4)
		if len(flows) == 0 {
			continue
		}
		demands := demand.Matrix{}
		for _, f := range flows {
			demands[f] = 1 + rng.Float64()*5
		}
		// Measure the layout's worst q.
		qMax := 0
		for _, f := range flows {
			_, q := tun.PQ(f, nil)
			if q > qMax {
				qMax = q
			}
		}
		if qMax == 0 {
			qMax = 1
		}
		s := core.NewSolver(net, tun, core.Options{})
		st, _, err := s.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: qMax}})
		if err != nil {
			t.Fatal(err)
		}
		// ke=qMax link protection must imply kv=1 switch protection.
		if cert := certify(t, net, tun, st, st, check.Params{Prot: core.Protection{Kv: 1}}); !cert.OK {
			t.Fatalf("trial %d: ke=%d did not cover one switch failure: %s", trial, qMax, cert.Summary())
		}
	}
}

// TestOrderedLimitersTighter: Eqn 18 (ordered updates) admits at least as
// much as LimitersIndependent's reservation-based handling of Eqn 17.
func TestOrderedLimitersTighter(t *testing.T) {
	fx := core.NewFig25(t)
	prev := fig3Prev(fx)
	demands := demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 10}
	prot := core.Protection{Kc: 1}
	in := core.Input{Demands: demands, Prot: prot, Prev: prev}

	rate := func(mode core.RateLimiterMode) float64 {
		s := core.NewSolver(fx.Net, fx.Tun, core.Options{RateLimiter: mode})
		st, _, err := s.Solve(in)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if cert := certify(t, fx.Net, fx.Tun, st, prev, check.Params{Prot: prot, RateLimiter: mode}); !cert.OK {
			t.Fatalf("mode %d: violated: %s", mode, cert.Summary())
		}
		return st.TotalRate()
	}
	ordered := rate(core.LimitersOrdered)
	synced := rate(core.LimitersSynced)
	independent := rate(core.LimitersIndependent)
	if independent > synced+1e-6 {
		t.Fatalf("independent (%v) admits more than synced (%v)", independent, synced)
	}
	if ordered < synced-1e-6 {
		t.Fatalf("ordered (%v) admits less than synced (%v); Eqn 18 should be no tighter", ordered, synced)
	}
}

// TestSolverReuseAcrossIntervals exercises the controller pattern: many
// sequential solves against evolving demands with kc protection, each
// certified, mimicking a production control loop.
func TestSolverReuseAcrossIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	net, tun, flows := core.RandomNetwork(rng, 6, 5)
	if len(flows) == 0 {
		t.Skip("degenerate network")
	}
	s := core.NewSolver(net, tun, core.Options{MiceFraction: 0.01})
	prot := core.Protection{Kc: 1, Ke: 1}
	prev := core.NewState()
	for interval := 0; interval < 8; interval++ {
		demands := demand.Matrix{}
		for _, f := range flows {
			demands[f] = 1 + rng.Float64()*8
		}
		st, _, err := s.Solve(core.Input{Demands: demands, Prot: prot, Prev: prev})
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		if cert := certify(t, net, tun, st, prev, check.Params{Prot: prot}); !cert.OK {
			t.Fatalf("interval %d: %s", interval, cert.Summary())
		}
		prev = st
	}
}

// TestVerifierCatchesPlantedViolation guards the certifier itself: a
// hand-planted unsafe state must be flagged.
func TestVerifierCatchesPlantedViolation(t *testing.T) {
	fx := core.NewFig25(t)
	bad := core.NewState()
	// 14 units forced onto the single direct link (cap 10): no faults even
	// needed, and the certifier checks the fault-free case too.
	bad.Rate[fx.F24], bad.Alloc[fx.F24] = 14, []float64{14, 0}
	if cert := certify(t, fx.Net, fx.Tun, bad, bad, check.Params{}); cert.OK {
		t.Fatal("certifier missed a planted overload")
	}
	// Control plane: the new state overloads when s2 keeps its old
	// 100%-direct weights at the new higher rate.
	old := core.NewState()
	old.Rate[fx.F24], old.Alloc[fx.F24] = 8, []float64{8, 0}
	upd := core.NewState()
	upd.Rate[fx.F24], upd.Alloc[fx.F24] = 14, []float64{7, 7}
	if cert := certify(t, fx.Net, fx.Tun, upd, old, check.Params{Prot: core.Protection{Kc: 1}}); cert.OK || cert.Violation.Plane != "control" {
		t.Fatalf("certifier missed a planted stale-weights overload: %s", cert.Summary())
	}
}

func TestMaxMinWithFFC(t *testing.T) {
	fx := core.NewFig25(t)
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	prot := core.Protection{Ke: 1}
	res, err := s.SolveMaxMin(core.Input{
		Demands: demand.Matrix{fx.F24: 14, fx.F34: 14},
		Prot:    prot,
	}, 1.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cert := certify(t, fx.Net, fx.Tun, res.State, res.State, check.Params{Prot: prot}); !cert.OK {
		t.Fatalf("max-min FFC state violates guarantee: %s", cert.Summary())
	}
	r1, r2 := res.State.Rate[fx.F24], res.State.Rate[fx.F34]
	if math.Abs(r1-r2) > 1.0 { // α=1.1 approximation slack
		t.Fatalf("max-min FFC rates uneven: %v vs %v", r1, r2)
	}
}

func TestPlanCapacityForFFCProtection(t *testing.T) {
	// With ke=1 and two link-disjoint tunnels, τ=1: both tunnels must carry
	// the full 14 → the via-s1 route needs 4 extra on each of its two hops
	// and the direct link 4 → 12 units total.
	fx := core.NewFig25(t)
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{Objective: core.PlanCapacity})
	prot := core.Protection{Ke: 1}
	st, stats, err := s.Solve(core.Input{Demands: demand.Matrix{fx.F24: 14}, Prot: prot})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.F24]-14) > 1e-6 {
		t.Fatalf("rate %v, want 14", st.Rate[fx.F24])
	}
	var total float64
	for _, x := range stats.AddedCapacity {
		total += x
	}
	if math.Abs(total-12) > 1e-6 {
		t.Fatalf("bought %v units (%v), want 12", total, stats.AddedCapacity)
	}
	// The expanded network must satisfy the ke=1 guarantee: certify against
	// the raised capacities.
	caps := map[topology.LinkID]float64{}
	for _, l := range fx.Net.Links {
		caps[l.ID] = l.Capacity
	}
	for l, x := range stats.AddedCapacity {
		caps[l] += x
	}
	if cert := certify(t, fx.Net, fx.Tun, st, st, check.Params{Prot: prot, Capacity: caps}); !cert.OK {
		t.Fatalf("planned capacity insufficient: %s", cert.Summary())
	}
}

// TestSessionStructureChangesRebuild checks the fingerprint: flow-set and
// down-set changes must invalidate the cached model (and still solve
// correctly), not be rebound onto a stale structure.
func TestSessionStructureChangesRebuild(t *testing.T) {
	fx := core.NewFig25(t)
	s := core.NewSolver(fx.Net, fx.Tun, core.Options{})
	se := s.NewSession()

	if _, _, err := se.Solve(core.Input{Demands: demand.Matrix{fx.F24: 10, fx.F34: 10}}); err != nil {
		t.Fatal(err)
	}
	// New flow appears: different variable set.
	in := core.Input{Demands: demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 5}}
	st, stats, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelReused {
		t.Fatal("flow-set change was rebound onto the old model")
	}
	if st.Rate[fx.F14] <= 0 {
		t.Fatal("new flow got no rate after rebuild")
	}
	// Down link appears: different alive sets inside the constraints.
	l := fx.Net.FindLink(fx.S2, fx.S4)
	in = core.Input{
		Demands:   demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 5},
		DownLinks: map[topology.LinkID]bool{l: true},
	}
	warmSt, stats, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelReused {
		t.Fatal("down-set change was rebound onto the old model")
	}
	coldSt, _, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(warmSt.TotalRate() - coldSt.TotalRate()); d > 1e-6 {
		t.Fatalf("session %v vs cold %v with a down link", warmSt.TotalRate(), coldSt.TotalRate())
	}

	// L-Net at ke=1 through a link-down / link-up cycle: a loaded link
	// fails (its tunnels' columns are pinned to [0,0]), demands drift while
	// it is down (the carried basis is seated on a model holding those
	// pinned columns), and it comes back. Every step must match a scratch
	// solve, report what became of the carried basis, and stay
	// congestion-free under any further single link failure.
	lnet := topology.LNet(topology.LNetConfig{Sites: 6}, rand.New(rand.NewSource(5)))
	set, series := core.BuildFixture(t, lnet, 2, 5)
	ls := core.NewSolver(lnet, set, core.Options{})
	lse := ls.NewSession()
	down := map[topology.LinkID]bool{}
	for i, step := range []struct {
		name    string
		demands demand.Matrix
		down    map[topology.LinkID]bool
	}{
		{"all up", series[0], nil},
		{"link down", series[0], down},
		{"drift while down", series[1], down},
		{"link up", series[1], nil},
	} {
		// ×200 congests the fixture, so losing a loaded link moves the optimum.
		lin := core.Input{Demands: step.demands.Scale(200), Prot: core.Protection{Ke: 1}, DownLinks: step.down}
		got, stats, err := lse.Solve(lin)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if i > 0 && !stats.LP.Warm && !stats.LP.WarmFellBack {
			t.Fatalf("%s: the carried basis was neither seated nor reported as dropped", step.name)
		}
		if stats.LP.Warm && (stats.LP.Phase1Iters != 0 || stats.LP.WarmRepairs != 0) {
			t.Fatalf("%s: the dual re-solve left Phase I work: %+v", step.name, stats.LP)
		}
		want, wantStats, err := ls.Solve(lin)
		if err != nil {
			t.Fatalf("%s: scratch solve: %v", step.name, err)
		}
		if d := math.Abs(stats.Objective - wantStats.Objective); d > 1e-6*(1+math.Abs(wantStats.Objective)) {
			t.Fatalf("%s: session objective %v vs scratch %v", step.name, stats.Objective, wantStats.Objective)
		}
		if d := math.Abs(got.TotalRate() - want.TotalRate()); d > 1e-6 {
			t.Fatalf("%s: session %v vs scratch %v", step.name, got.TotalRate(), want.TotalRate())
		}
		if cert := certify(t, lnet, set, got, got, check.Params{Prot: core.Protection{Ke: 1}}); !cert.OK {
			t.Fatalf("%s: %s", step.name, cert.Summary())
		}
		if i == 0 {
			if got.TotalRate() >= lin.Demands.Total()-1e-6 {
				t.Fatal("L-Net fixture is uncongested")
			}
			loads := got.LinkLoads(set)
			var loaded topology.LinkID
			for _, l := range lnet.Links {
				if loads[l.ID] > loads[loaded] {
					loaded = l.ID
				}
			}
			down[loaded] = true
		}
	}
}

// TestSessionReturnsToPreviousStructure checks the session's
// previous-structure slot: a link coming back up, and a protected interval
// after Step's unprotected retry, rebind the template the session left,
// with the basis and factorization it left with; a kc > 0 session never
// rebinds.
func TestSessionReturnsToPreviousStructure(t *testing.T) {
	ke1 := core.Protection{Ke: 1}
	t.Run("link up", func(t *testing.T) {
		lnet := topology.LNet(topology.LNetConfig{Sites: 6}, rand.New(rand.NewSource(5)))
		set, series := core.BuildFixture(t, lnet, 2, 5)
		s := core.NewSolver(lnet, set, core.Options{MiceFraction: 0.01})
		se := s.NewSession()
		up := core.Input{Demands: series[0].Scale(200), Prot: ke1}
		st, _, err := se.Solve(up)
		if err != nil {
			t.Fatal(err)
		}
		loads := st.LinkLoads(set)
		var loaded topology.LinkID
		for _, l := range lnet.Links {
			if loads[l.ID] > loads[loaded] {
				loaded = l.ID
			}
		}
		down := up
		down.DownLinks = map[topology.LinkID]bool{loaded: true}
		if _, stats, err := se.Solve(down); err != nil || stats.ModelReused {
			t.Fatalf("link down: err %v, ModelReused %v; want a fresh formulation", err, stats.ModelReused)
		}
		up.Demands = series[1].Scale(200)
		got, stats, err := se.Solve(up)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ModelReused || !stats.LP.Warm || !stats.LP.FactorReused {
			t.Fatalf("link up: ModelReused %v Warm %v FactorReused %v, want all true",
				stats.ModelReused, stats.LP.Warm, stats.LP.FactorReused)
		}
		_, want, err := s.Solve(up)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(stats.Objective - want.Objective); d > 1e-9*math.Abs(want.Objective) {
			t.Fatalf("link up: objective %v, fresh solve %v", stats.Objective, want.Objective)
		}
		if cert := certify(t, lnet, set, got, got, check.Params{Prot: ke1}); !cert.OK {
			t.Fatalf("link up: %s", cert.Summary())
		}
	})

	t.Run("after unprotected retry", func(t *testing.T) {
		fx := core.NewFig25(t)
		se := core.NewSolver(fx.Net, fx.Tun, core.Options{MiceFraction: 0.01}).NewSession()
		accept := func(*core.State, core.Protection) bool { return true }
		in := core.Input{Demands: demand.Matrix{fx.F24: 5, fx.F34: 6}, Prot: ke1}
		if _, _, reason, _ := se.Step(in, nil, accept); reason != "" {
			t.Fatalf("protected step degraded: %s", reason)
		}
		// At ke = 1 f24 gets at most 10 (each tunnel must carry it alone).
		floor := core.Input{Demands: demand.Matrix{fx.F24: 14}, Prot: ke1,
			RateFloors: map[tunnel.Flow]float64{fx.F24: 14}}
		if _, achieved, reason, _ := se.Step(floor, nil, accept); reason != "" || achieved != core.None {
			t.Fatalf("retry step: reason %q achieved %v, want the unprotected retry", reason, achieved)
		}
		_, _, reason, stats := se.Step(in, nil, accept)
		if reason != "" || !stats.ModelReused || !stats.LP.Warm {
			t.Fatalf("protected step after the retry: reason %q ModelReused %v Warm %v, want a warm rebind",
				reason, stats.ModelReused, stats.LP.Warm)
		}
	})

	t.Run("kc > 0", func(t *testing.T) {
		fx := core.NewFig25(t)
		s := core.NewSolver(fx.Net, fx.Tun, core.Options{MiceFraction: 0.01})
		se := s.NewSession()
		prev := fig3Prev(fx)
		down := map[topology.LinkID]bool{fx.Net.FindLink(fx.S2, fx.S4): true}
		// kc > 0 templates never enter the slot, so the unprotected one
		// stays there across them and the last step rebinds it.
		for i, step := range []struct {
			prot  core.Protection
			down  map[topology.LinkID]bool
			reuse bool
		}{
			{core.Protection{Kc: 1}, nil, false},
			{core.Protection{Kc: 1}, nil, false},
			{core.Protection{Kc: 1}, down, false},
			{core.Protection{Kc: 1}, nil, false},
			{core.None, nil, false},
			{core.Protection{Kc: 1}, nil, false},
			{core.Protection{Kc: 1, Ke: 1}, nil, false},
			{core.Protection{Kc: 1}, nil, false},
			{core.None, nil, true},
		} {
			in := core.Input{Demands: demand.Matrix{fx.F24: 10, fx.F34: 10, fx.F14: 10},
				Prot: step.prot, Prev: prev, DownLinks: step.down}
			st, stats, err := se.Solve(in)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if stats.ModelReused != step.reuse {
				t.Fatalf("step %d (%v): ModelReused %v, want %v", i, step.prot, stats.ModelReused, step.reuse)
			}
			prev = st
		}
	})
}
