package core

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func TestMaxMinFairSharesBottleneck(t *testing.T) {
	fx := newFig25(t)
	// Both flows want 14 but share link s1−s4 for their overflow beyond the
	// 10-unit direct links: max-min splits the shared 10 evenly.
	s := NewSolver(fx.net, fx.tun, Options{})
	res, err := s.SolveMaxMin(Input{Demands: demand.Matrix{fx.f24: 14, fx.f34: 14}}, 1.1, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := res.State.Rate[fx.f24], res.State.Rate[fx.f34]
	if math.Abs(r1-r2) > 1.0 { // α=1.1 approximation slack
		t.Fatalf("max-min rates uneven: %v vs %v", r1, r2)
	}
	if r1+r2 < 19 {
		t.Fatalf("max-min wasted capacity: total %v, want ~20", r1+r2)
	}
	if res.Iterations < 2 {
		t.Fatalf("expected multiple iterations, got %d", res.Iterations)
	}
}

func TestMaxMinVsMaxThroughputStarvation(t *testing.T) {
	// Craft a case where max-throughput starves a long flow: flow A uses
	// two links that flows B and C each use one of. Max-throughput prefers
	// B+C (2 units per unit of capacity); max-min gives A a fair share.
	net, tun, _ := lineNetwork()
	fA := tunnel.Flow{Src: 0, Dst: 2}
	fB := tunnel.Flow{Src: 0, Dst: 1}
	fC := tunnel.Flow{Src: 1, Dst: 2}
	d := demand.Matrix{fA: 10, fB: 10, fC: 10}
	s := NewSolver(net, tun, Options{})
	stMax, _, err := s.Solve(Input{Demands: d})
	if err != nil {
		t.Fatal(err)
	}
	if stMax.Rate[fA] > 1e-6 {
		t.Fatalf("max-throughput should starve the long flow, got %v", stMax.Rate[fA])
	}
	res, err := s.SolveMaxMin(Input{Demands: d}, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Rate[fA] < 3 {
		t.Fatalf("max-min long-flow rate %v, want ≥ 3 (fair share ~5)", res.State.Rate[fA])
	}
}

// lineNetwork: 0−1−2 with 10-capacity duplex links; flows get their only
// paths as tunnels.
func lineNetwork() (*topology.Network, *tunnel.Set, []tunnel.Flow) {
	net := topology.NewNetwork("line")
	a := net.AddSwitch("a", "a", 0, 0)
	b := net.AddSwitch("b", "b", 0, 1)
	c := net.AddSwitch("c", "c", 0, 2)
	net.AddDuplex(a, b, 10)
	net.AddDuplex(b, c, 10)
	flows := []tunnel.Flow{{Src: a, Dst: c}, {Src: a, Dst: b}, {Src: b, Dst: c}}
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 2, P: 1, Q: 3})
	return net, set, flows
}

func TestMaxMinEmptyDemands(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	res, err := s.SolveMaxMin(Input{Demands: demand.Matrix{}}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.TotalRate() != 0 {
		t.Fatal("empty demands should yield an empty state")
	}
}

func TestPlanUpdateDirectWhenSafe(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 5, []float64{5, 0}
	target := NewState()
	target.Rate[fx.f24], target.Alloc[fx.f24] = 5, []float64{5, 0}
	plan, err := s.PlanUpdate(prev, target, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reached || len(plan.Steps) != 1 {
		t.Fatalf("identity update should be one direct step: %+v", plan)
	}
}

// TestPlanUpdatePaperScenario: the Fig 3 transition done safely. Moving
// {s2,s3}→s4 traffic off the via-s1 tunnels and then admitting s1→s4 must
// happen in multiple steps, and the chain must tolerate stuck switches.
func TestPlanUpdatePaperScenario(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 10, []float64{7, 3}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 10, []float64{7, 3}
	prev.Rate[fx.f14], prev.Alloc[fx.f14] = 0, []float64{0}
	target := NewState()
	target.Rate[fx.f24], target.Alloc[fx.f24] = 10, []float64{10, 0}
	target.Rate[fx.f34], target.Alloc[fx.f34] = 10, []float64{10, 0}
	target.Rate[fx.f14], target.Alloc[fx.f14] = 10, []float64{10}

	for _, kc := range []int{0, 1, 2} {
		// The chain's destination must itself be kc-robust relative to the
		// history, so the proper target is the FFC-TE solution (which
		// admits 10/7/4 of the new flow for kc=0/1/2 — Fig 5).
		kcTarget := target
		if kc > 0 {
			st, _, err := s.Solve(Input{
				Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10},
				Prot:    Protection{Kc: kc},
				Prev:    prev,
			})
			if err != nil {
				t.Fatalf("kc=%d: target solve: %v", kc, err)
			}
			kcTarget = st
		}
		plan, err := s.PlanUpdate(prev, kcTarget, kc, 8)
		if err != nil {
			t.Fatalf("kc=%d: %v", kc, err)
		}
		if !plan.Reached {
			t.Fatalf("kc=%d: target not reached", kc)
		}
		// Every adjacent transition must satisfy Eqn 16 (+FFC) — re-check
		// numerically with the solver's own checker.
		hist := []*State{prev}
		for _, st := range plan.Steps {
			if !s.transitionSafe(hist, st, kc) {
				t.Fatalf("kc=%d: unsafe transition in plan", kc)
			}
			hist = append(hist, st)
		}
	}
}

// TestPlanUpdateStuckSwitchSimulation simulates executing the kc=1 plan with
// one switch stuck at every step; no link may overload at any point.
func TestPlanUpdateStuckSwitchSimulation(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 10, []float64{7, 3}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 10, []float64{7, 3}
	prev.Rate[fx.f14], prev.Alloc[fx.f14] = 0, []float64{0}
	// kc=1-robust destination (admits 7 units of f14, per Fig 5).
	target, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10},
		Prot:    Protection{Kc: 1},
		Prev:    prev,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.PlanUpdate(prev, target, 1, 8)
	if err != nil || !plan.Reached {
		t.Fatalf("plan failed: %v", err)
	}
	// One stuck ingress switch: it applies none of the steps. Check the
	// network state after each step with the stuck switch's flows on their
	// original configuration.
	history := append([]*State{prev}, plan.Steps...)
	for _, stuck := range []int{int(fx.s2), int(fx.s3)} {
		for stepIdx := 1; stepIdx < len(history); stepIdx++ {
			loads := map[int]float64{}
			for f := range history[stepIdx].Alloc {
				// The stuck switch keeps the configuration it last applied:
				// it applied nothing, so its flows still use history[0].
				src := history[stepIdx]
				if int(f.Src) == stuck {
					src = history[0]
				}
				for _, tn := range fx.tun.Tunnels(f) {
					a := idx(src.Alloc[f], tn.Index)
					for _, l := range tn.Links {
						loads[int(l)] += a
					}
				}
			}
			for l, load := range loads {
				if load > fx.net.Links[l].Capacity+1e-6 {
					t.Fatalf("stuck=%d step=%d: link %d overloaded at %v", stuck, stepIdx, l, load)
				}
			}
		}
	}
}

func TestPlanUpdateRandomSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 8; trial++ {
		net, tun, flows := randomNetwork(rng, 6, 4)
		if len(flows) == 0 {
			continue
		}
		d1, d2 := demand.Matrix{}, demand.Matrix{}
		for _, f := range flows {
			d1[f] = 1 + rng.Float64()*6
			d2[f] = 1 + rng.Float64()*6
		}
		s := NewSolver(net, tun, Options{})
		prev, _, err := s.Solve(Input{Demands: d1})
		if err != nil {
			t.Fatal(err)
		}
		target, _, err := s.Solve(Input{Demands: d2})
		if err != nil {
			t.Fatal(err)
		}
		kc := rng.Intn(2)
		plan, err := s.PlanUpdate(prev, target, kc, 10)
		if err != nil {
			// Stalls can legitimately happen under tight capacity; what
			// must never happen is an unsafe step.
			t.Logf("trial %d: plan incomplete: %v", trial, err)
		}
		hist := []*State{prev}
		for _, st := range plan.Steps {
			if !s.transitionSafe(hist, st, kc) {
				t.Fatalf("trial %d kc=%d: unsafe step", trial, kc)
			}
			hist = append(hist, st)
		}
	}
}
