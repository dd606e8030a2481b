package core

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
)

// TestSessionMatchesColdSolve drives a Session through a drifting-demand
// interval sequence and checks every solve against a cold Solver.Solve of
// the identical input: equal optima and feasible allocations, with the
// session actually reusing the model after the first interval.
func TestSessionMatchesColdSolve(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	se := s.NewSession()
	rng := rand.New(rand.NewSource(42))

	reused := 0
	for i := 0; i < 12; i++ {
		in := Input{Demands: demand.Matrix{
			fx.f24: 4 + 8*rng.Float64(),
			fx.f34: 4 + 8*rng.Float64(),
			fx.f14: 2 * rng.Float64(),
		}}
		if i%4 == 3 {
			in.Prot = Protection{Ke: 1} // structure change: forces a rebuild
		}
		warmSt, warmStats, warmErr := se.Solve(in)
		coldSt, _, coldErr := s.Solve(in)
		if (warmErr == nil) != (coldErr == nil) {
			t.Fatalf("interval %d: session err %v vs cold err %v", i, warmErr, coldErr)
		}
		if warmErr != nil {
			continue
		}
		if d := math.Abs(warmSt.TotalRate() - coldSt.TotalRate()); d > 1e-6*(1+coldSt.TotalRate()) {
			t.Fatalf("interval %d: session throughput %v vs cold %v", i, warmSt.TotalRate(), coldSt.TotalRate())
		}
		for l, load := range warmSt.LinkLoads(fx.tun) {
			if load > fx.net.Links[l].Capacity+1e-6 {
				t.Fatalf("interval %d: link %d overloaded: %v", i, l, load)
			}
		}
		for f, r := range warmSt.Rate {
			if r < -1e-9 || r > in.Demands[f]+1e-6 {
				t.Fatalf("interval %d: flow %v rate %v outside [0, %v]", i, f, r, in.Demands[f])
			}
		}
		if warmStats.ModelReused {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("session never rebound the cached model across 12 intervals")
	}
}

// TestSessionRebindTracksCapacity checks that rebinding refreshes the
// capacity right-hand sides: shrinking a link's capacity between session
// solves must shrink the optimum exactly as a cold solve does.
func TestSessionRebindTracksCapacity(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	se := s.NewSession()
	dem := demand.Matrix{fx.f24: 10, fx.f34: 10}

	if _, _, err := se.Solve(Input{Demands: dem}); err != nil {
		t.Fatal(err)
	}
	// Halve every capacity via the override map; the cached model must be
	// rebound, not reused verbatim.
	caps := map[topology.LinkID]float64{}
	for _, l := range fx.net.Links {
		caps[l.ID] = l.Capacity / 2
	}
	in := Input{Demands: dem, Capacity: caps}
	warmSt, warmStats, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	coldSt, _, err := s.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !warmStats.ModelReused {
		t.Fatal("capacity-only change should rebind, not rebuild")
	}
	if d := math.Abs(warmSt.TotalRate() - coldSt.TotalRate()); d > 1e-6 {
		t.Fatalf("session %v vs cold %v after capacity change", warmSt.TotalRate(), coldSt.TotalRate())
	}
	for l, load := range warmSt.LinkLoads(fx.tun) {
		if load > caps[l]+1e-6 {
			t.Fatalf("link %d exceeds halved capacity: %v > %v", l, load, caps[l])
		}
	}
}

// TestSessionStructureChangesRebuild checks the fingerprint: flow-set and
// down-set changes must invalidate the cached model (and still solve
// correctly), not be rebound onto a stale structure.
func TestSessionStructureChangesRebuild(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	se := s.NewSession()

	if _, _, err := se.Solve(Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}}); err != nil {
		t.Fatal(err)
	}
	// New flow appears: different variable set.
	in := Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 5}}
	st, stats, err := se.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ModelReused {
		t.Fatal("flow-set change was rebound onto the old model")
	}
	if st.Rate[fx.f14] <= 0 {
		t.Fatal("new flow got no rate after rebuild")
	}
	// Down link appears: different alive sets inside the constraints.
	l := fx.net.FindLink(fx.s2, fx.s4)
	in = Input{
		Demands:   demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 5},
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
	set, series := buildFixture(t, lnet, 2, 5)
	ls := NewSolver(lnet, set, Options{})
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
		lin := Input{Demands: step.demands.Scale(200), Prot: Protection{Ke: 1}, DownLinks: step.down}
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
		if v := VerifyDataPlane(lnet, set, got, 1, 0, nil); v != nil {
			t.Fatalf("%s: %v", step.name, v)
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

// TestSessionMaxMin checks the warm-started max-min iteration against the
// cold one: same fixed point, same LP count, fewer or equal simplex
// iterations in total.
func TestSessionMaxMin(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	in := Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 6}}

	cold, err := s.SolveMaxMin(in, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.NewSession().SolveMaxMin(in, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations != cold.Iterations {
		t.Fatalf("LP count diverged: warm %d vs cold %d", warm.Iterations, cold.Iterations)
	}
	for f := range in.Demands {
		if d := math.Abs(warm.State.Rate[f] - cold.State.Rate[f]); d > 1e-6 {
			t.Fatalf("flow %v: warm rate %v vs cold %v", f, warm.State.Rate[f], cold.State.Rate[f])
		}
	}
	if warm.TotalStats.Iters > cold.TotalStats.Iters {
		t.Fatalf("warm max-min used more simplex iterations (%d) than cold (%d)",
			warm.TotalStats.Iters, cold.TotalStats.Iters)
	}
}
