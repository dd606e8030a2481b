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
