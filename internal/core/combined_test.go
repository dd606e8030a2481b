package core

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
)

// TestProtectionMonotoneOverhead: throughput is non-increasing in each
// protection dimension (more protection can never admit more traffic).
func TestProtectionMonotoneOverhead(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	net, tun, flows := randomNetwork(rng, 7, 6)
	demands := demand.Matrix{}
	for _, f := range flows {
		demands[f] = 2 + rng.Float64()*10
	}
	s := NewSolver(net, tun, Options{})
	prev, _, err := s.Solve(Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	solveAt := func(p Protection) float64 {
		in := Input{Demands: demands, Prot: p}
		if p.Kc > 0 {
			in.Prev = prev
		}
		st, _, err := s.Solve(in)
		if err != nil {
			return 0 // infeasible counts as zero throughput
		}
		return st.TotalRate()
	}
	prevRate := math.Inf(1)
	for ke := 0; ke <= 2; ke++ {
		r := solveAt(Protection{Ke: ke})
		if r > prevRate+1e-6 {
			t.Fatalf("throughput increased with ke: %v → %v", prevRate, r)
		}
		prevRate = r
	}
	prevRate = math.Inf(1)
	for kc := 0; kc <= 3; kc++ {
		r := solveAt(Protection{Kc: kc})
		if r > prevRate+1e-6 {
			t.Fatalf("throughput increased with kc: %v → %v", prevRate, r)
		}
		prevRate = r
	}
}

// TestBigFaultWaiverEndToEnd simulates the §4.5 situation end to end: a
// fault beyond the protection level overloads a link; the next computation
// must still be feasible (waiving kc on overloaded links) and drain it.
func TestBigFaultWaiverEndToEnd(t *testing.T) {
	fx := newFig25(t)
	// Previous state overloads s1−s4 with 12 units from one source.
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 14, []float64{2, 12}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 8, []float64{8, 0}
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 14, fx.f34: 8},
		Prot:    Protection{Kc: 2},
		Prev:    prev,
	})
	if err != nil {
		t.Fatalf("waiver did not restore feasibility: %v", err)
	}
	// The new configuration itself must not overload anything.
	for l, load := range st.LinkLoads(fx.tun) {
		if load > fx.net.Links[l].Capacity+1e-6 {
			t.Fatalf("link %d still overloaded at %v", l, load)
		}
	}
}

// TestEncodingSizeMatchesPaperBounds checks §4.4.3's accounting: control-
// plane FFC adds at most |E| + 4·kc·|V|·|E| constraints and 3·kc·|V|·|E|
// variables; data-plane FFC at most |F| + 4·Σf |Tf|·min(|Tf|−τf, τf)
// constraints. Our compare-swap encoding (3 rows, 2 vars per swap) sits
// within those bounds.
func TestEncodingSizeMatchesPaperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net, tun, flows := randomNetwork(rng, 7, 6)
	demands := demand.Matrix{}
	for _, f := range flows {
		demands[f] = 3 + rng.Float64()*5
	}
	s := NewSolver(net, tun, Options{Encoding: SortNet})
	prev, _, err := s.Solve(Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	for _, prot := range []Protection{{Kc: 2}, {Ke: 1}, {Kc: 3, Ke: 1}} {
		stats, err := s.FormulateOnly(Input{Demands: demands, Prot: prot, Prev: prev})
		if err != nil {
			t.Fatal(err)
		}
		V, E := net.NumSwitches(), net.NumLinks()
		bound := 0
		if prot.Kc > 0 {
			bound += E + 4*prot.Kc*V*E
		}
		if prot.Ke > 0 || prot.Kv > 0 {
			sumT := 0
			for _, f := range flows {
				nT := len(tun.Tunnels(f))
				p, q := tun.PQ(f, nil)
				tau := nT - prot.Ke*p - prot.Kv*q
				m := nT - tau
				if tau < m {
					m = tau
				}
				if m > 0 {
					sumT += nT * m
				}
			}
			bound += len(flows) + 4*sumT
		}
		if stats.EncodingConstraints > bound {
			t.Fatalf("prot %v: %d encoding constraints exceed the §4.4.3 bound %d",
				prot, stats.EncodingConstraints, bound)
		}
	}
}
