package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// demandOracle enumerates every set of up to count flows sending factor ×
// their planned rate (everyone else at plan) and returns the worst
// overload, or nil when st is robust. Serial and exponential in count; it
// is the reference the §9 demand-FFC tests check solver plans against.
func demandOracle(net *topology.Network, tun *tunnel.Set, st *State,
	count int, factor float64, capacity map[topology.LinkID]float64) *Violation {

	flows := tunnel.SortedFlows(st.Rate)
	var worst *Violation
	overdriven := map[tunnel.Flow]bool{}
	forEachComboUpTo(len(flows), count, func(sel []int) {
		clear(overdriven)
		for _, i := range sel {
			overdriven[flows[i]] = true
		}
		loads := map[topology.LinkID]float64{}
		for _, f := range flows {
			rate := st.Rate[f]
			if overdriven[f] {
				rate *= factor
			}
			w := st.Weights(f)
			for _, t := range tun.Tunnels(f) {
				for _, l := range t.Links {
					loads[l] += rate * w[t.Index]
				}
			}
		}
		for _, l := range net.Links {
			c := l.Capacity
			if o, ok := capacity[l.ID]; ok {
				c = o
			}
			if load := loads[l.ID]; overThreshold(load, c) && (worst == nil || load-c > worst.Over) {
				worst = &Violation{Case: fmt.Sprintf("overdriven=%v", sel), Link: l.ID, Over: load - c}
			}
		}
	})
	return worst
}

func TestDemandFFCRequiresMinMLU(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	_, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 5},
		Demand:  DemandUncertainty{Count: 1, Factor: 1.5},
	})
	if err == nil {
		t.Fatal("expected error: demand FFC without MinMLU")
	}
}

func TestDemandFFCSpreadsForHeadroom(t *testing.T) {
	fx := newFig25(t)
	// Offered 8 units s2→s4; if one flow may send 1.5×, the worst load is
	// 12 on a 10 link unless spread. With demand FFC the solver must keep
	// fault-MLU ≤ 1 by splitting across both tunnels.
	opts := Options{Objective: MinMLU}
	s := NewSolver(fx.net, fx.tun, opts)
	st, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 8, fx.f34: 8},
		Demand:  DemandUncertainty{Count: 1, Factor: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Robustness: no single 1.5× misprediction may overload any link.
	if v := demandOracle(fx.net, fx.tun, st, 1, 1.5, nil); v != nil {
		t.Fatalf("demand FFC violated: %+v", v)
	}
}

func TestDemandFFCPlainMLUIsUnsafe(t *testing.T) {
	fx := newFig25(t)
	opts := Options{Objective: MinMLU}
	s := NewSolver(fx.net, fx.tun, opts)
	// Without demand FFC, MinMLU on a busy network concentrates each flow
	// enough that a 2× misprediction overloads something.
	st, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if v := demandOracle(fx.net, fx.tun, st, 2, 2.0, nil); v == nil {
		t.Skip("plain MLU happened to be robust on this instance")
	}
	// With demand FFC at the same level the guarantee must hold relative
	// to the planned fault-case MLU (both flows doubling cannot fit in raw
	// capacity; the LP plans — and reports — the ceiling instead).
	robust, stats, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 10, fx.f34: 10},
		Demand:  DemandUncertainty{Count: 2, Factor: 2.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultMLU <= 1 {
		t.Fatalf("FaultMLU %v; doubling both flows must exceed capacity", stats.FaultMLU)
	}
	caps := map[topology.LinkID]float64{}
	for _, l := range fx.net.Links {
		caps[l.ID] = l.Capacity * (stats.FaultMLU + 1e-6)
	}
	if v := demandOracle(fx.net, fx.tun, robust, 2, 2.0, caps); v != nil {
		t.Fatalf("demand FFC violated its planned ceiling: %+v", v)
	}
}

// TestDemandFFCPropertyRandom: the guarantee in MinMLU mode is relative to
// the planned fault-case MLU (Stats.FaultMLU): no combination of up to
// Count mispredicted flows may load any link beyond FaultMLU × capacity.
// Every trial runs under all three encodings, which must plan the same
// FaultMLU.
func TestDemandFFCPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 10; trial++ {
		net, tun, flows := randomNetwork(rng, 6, 4)
		if len(flows) == 0 {
			continue
		}
		demands := demand.Matrix{}
		for _, f := range flows {
			demands[f] = 0.5 + rng.Float64()*3
		}
		count := 1 + rng.Intn(2)
		factor := 1.2 + rng.Float64()
		_ = rng.Intn(2) // still drawn, so later trials see the same random stream
		var ref float64
		for _, enc := range []Encoding{Compact, SortNet, Naive} {
			s := NewSolver(net, tun, Options{Objective: MinMLU, Encoding: enc})
			st, stats, err := s.Solve(Input{Demands: demands, Demand: DemandUncertainty{Count: count, Factor: factor}})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, enc, err)
			}
			if stats.FaultMLU <= 0 {
				t.Fatalf("trial %d %v: FaultMLU not reported", trial, enc)
			}
			if enc == Compact {
				ref = stats.FaultMLU
			} else if math.Abs(stats.FaultMLU-ref) > 1e-7*ref {
				t.Fatalf("trial %d: %v plans FaultMLU %v, compact %v", trial, enc, stats.FaultMLU, ref)
			}
			caps := map[topology.LinkID]float64{}
			for _, l := range net.Links {
				caps[l.ID] = l.Capacity * (stats.FaultMLU + 1e-6)
			}
			if v := demandOracle(net, tun, st, count, factor, caps); v != nil {
				t.Fatalf("trial %d %v (count=%d factor=%.2f, fault MLU %.3f): %+v",
					trial, enc, count, factor, stats.FaultMLU, v)
			}
		}
	}
}
