package core

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
)

func TestPlanCapacityNoProtectionNoCost(t *testing.T) {
	// Demand fits already: no expansion needed.
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{Objective: PlanCapacity})
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.AddedCapacity) != 0 {
		t.Fatalf("expansion %v bought for a fitting demand", stats.AddedCapacity)
	}
	if math.Abs(st.TotalRate()-16) > 1e-6 {
		t.Fatalf("rate %v, want full demand 16", st.TotalRate())
	}
}

func TestPlanCapacityBuysExactShortfall(t *testing.T) {
	// f24 demands 24 over a direct 10 + via-s1 10 = 20 of path capacity:
	// exactly 4 units of expansion are needed (on one of the two routes).
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{Objective: PlanCapacity})
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-24) > 1e-6 {
		t.Fatalf("rate %v, want 24", st.Rate[fx.f24])
	}
	var total float64
	for _, x := range stats.AddedCapacity {
		total += x
	}
	// The via-s1 route has two hops, so covering 4 extra units costs
	// either 4 (direct) or 8 (two links); the optimum expands the direct
	// link by 4... but 14 > direct cap 10 means direct also needs +4:
	// optimal split keeps each route within capacity: direct 10 + via 10
	// leaves 4 missing; cheapest is +4 on the direct link (1 link).
	if math.Abs(total-4) > 1e-6 {
		t.Fatalf("bought %v units total (%v), want 4", total, stats.AddedCapacity)
	}
}

func TestPlanCapacityWeightedCost(t *testing.T) {
	// Make the direct link prohibitively expensive: the optimum should
	// expand the two-hop via-s1 route instead (total 8 units, cost 8).
	fx := newFig25(t)
	direct := fx.net.FindLink(fx.s2, fx.s4)
	twin := fx.net.Links[direct].Twin
	opts := Options{Objective: PlanCapacity, CapacityCost: func(l topology.LinkID) float64 {
		if l == direct || l == twin {
			return 100
		}
		return 1
	}}
	s := NewSolver(fx.net, fx.tun, opts)
	_, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 24}})
	if err != nil {
		t.Fatal(err)
	}
	if x := stats.AddedCapacity[direct]; x > 1e-9 {
		t.Fatalf("expanded the expensive direct link by %v", x)
	}
	var total float64
	for _, x := range stats.AddedCapacity {
		total += x
	}
	if math.Abs(total-8) > 1e-6 {
		t.Fatalf("bought %v units, want 8 on the two-hop route", total)
	}
}

func TestPlanCapacityControlPlane(t *testing.T) {
	// Fig 3/5 situation at kc=2 with the full 10-unit new flow: link s1−s4
	// must fit 10 (new) + 3 + 3 (two stale switches) = 16 → buy 6.
	fx := newFig25(t)
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 10, []float64{7, 3}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 10, []float64{7, 3}
	s := NewSolver(fx.net, fx.tun, Options{Objective: PlanCapacity})
	st, stats, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10},
		Prot:    Protection{Kc: 2},
		Prev:    prev,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f14]-10) > 1e-6 {
		t.Fatalf("new flow %v, want full 10", st.Rate[fx.f14])
	}
	s14 := fx.net.FindLink(fx.s1, fx.s4)
	if x := stats.AddedCapacity[s14]; math.Abs(x-6) > 1e-6 {
		t.Fatalf("s1−s4 expansion %v, want 6 (%v)", x, stats.AddedCapacity)
	}
}

func TestShadowPricesIdentifyBottleneck(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	// Demand 30 through 20 units of path capacity: both routes binding.
	_, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 30}})
	if err != nil {
		t.Fatal(err)
	}
	direct := fx.net.FindLink(fx.s2, fx.s4)
	if p := stats.LinkShadowPrice[direct]; math.Abs(p-1) > 1e-6 {
		t.Fatalf("direct link shadow price %v, want 1 (unit throughput per unit capacity)", p)
	}
	// A link carrying nothing for this flow has no price.
	s34 := fx.net.FindLink(fx.s3, fx.s4)
	if p := stats.LinkShadowPrice[s34]; p != 0 {
		t.Fatalf("idle link priced at %v", p)
	}
}

func TestShadowPricesRandomConsistency(t *testing.T) {
	// Property: raising the capacity of a positively-priced link by ε must
	// raise max throughput by ≈ ε·price.
	rng := rand.New(rand.NewSource(31))
	net, tun, flows := randomNetwork(rng, 6, 5)
	demands := demand.Matrix{}
	for _, f := range flows {
		demands[f] = 5 + rng.Float64()*10
	}
	s := NewSolver(net, tun, Options{})
	_, stats, err := s.Solve(Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	for l, price := range stats.LinkShadowPrice {
		if price < 1e-6 {
			continue
		}
		const eps = 1e-3
		caps := map[topology.LinkID]float64{l: net.Links[l].Capacity + eps}
		_, stats2, err := s.Solve(Input{Demands: demands, Capacity: caps})
		if err != nil {
			t.Fatal(err)
		}
		gain := stats2.Objective - stats.Objective
		if math.Abs(gain-eps*price) > 1e-6 {
			t.Fatalf("link %d price %v predicted gain %v, measured %v", l, price, eps*price, gain)
		}
		break // one check suffices per run
	}
}
