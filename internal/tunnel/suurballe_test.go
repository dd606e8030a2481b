package tunnel

import (
	"math/rand"
	"testing"

	"ffc/internal/topology"
)

// bridgeTrap builds the topology where greedy disjoint paths fail: the
// shortest path uses a "bridge" link shared between the only two disjoint
// routes. Suurballe must still find the pair.
//
//	s ─ a ─ b ─ t        short route via the bridge a─b
//	s ─ c ─ a            west detour
//	b ─ d ─ t            east detour
//
// Greedy takes s-a-b-t; banning its links leaves s-c-a (dead end: a─b
// banned) — no second path. The true pair is s-a-…? Actually the two
// disjoint routes are s-a-b-t is NOT part of either: s-c-a-b-d-t and
// s-a-…: the pair is {s-a-b-d-t? shares a-b}. Construct precisely below.
func bridgeTrap(t *testing.T) (*topology.Network, topology.SwitchID, topology.SwitchID) {
	t.Helper()
	net := topology.NewNetwork("trap")
	s := net.AddSwitch("s", "s", 0, 0)
	a := net.AddSwitch("a", "a", 0, 1)
	b := net.AddSwitch("b", "b", 0, 2)
	tt := net.AddSwitch("t", "t", 0, 3)
	c := net.AddSwitch("c", "c", 1, 1)
	d := net.AddSwitch("d", "d", 1, 2)
	// Disjoint pair: s-a-d-t and s-c-b-t. Greedy shortest: s-a-b-t
	// (if a-b exists and is shortest) which blocks both routes' middles.
	net.AddDuplex(s, a, 1)
	net.AddDuplex(a, b, 1)
	net.AddDuplex(b, tt, 1)
	net.AddDuplex(s, c, 1)
	net.AddDuplex(c, b, 1)
	net.AddDuplex(a, d, 1)
	net.AddDuplex(d, tt, 1)
	return net, s, tt
}

func TestDisjointPairBeatsGreedy(t *testing.T) {
	net, s, dst := bridgeTrap(t)
	pair := DisjointPair(net, s, dst, nil)
	if len(pair) != 2 {
		t.Fatalf("Suurballe found %d paths, want 2", len(pair))
	}
	used := map[topology.LinkID]bool{}
	for _, p := range pair {
		v := s
		for _, l := range p {
			lk := net.Links[l]
			if lk.Src != v {
				t.Fatalf("broken path %v", p)
			}
			v = lk.Dst
			can := l
			if lk.Twin != topology.None && lk.Twin < l {
				can = lk.Twin
			}
			if used[can] {
				t.Fatalf("paths share physical link %d", can)
			}
			used[can] = true
		}
		if v != dst {
			t.Fatalf("path does not reach t: %v", p)
		}
	}
}

func TestLayoutUsesSuurballeSeed(t *testing.T) {
	net, s, dst := bridgeTrap(t)
	set := Layout(net, []Flow{{Src: s, Dst: dst}}, LayoutConfig{TunnelsPerFlow: 2, P: 1, Q: 3})
	if got := len(set.Tunnels(Flow{Src: s, Dst: dst})); got != 2 {
		t.Fatalf("layout produced %d tunnels, want 2 (greedy-only finds 1 here)", got)
	}
	p, _ := set.PQ(Flow{Src: s, Dst: dst}, nil)
	if p != 1 {
		t.Fatalf("p = %d, want 1", p)
	}
}

func TestDisjointPairNoPairExists(t *testing.T) {
	// A pure chain has exactly one path.
	net := topology.NewNetwork("chain")
	a := net.AddSwitch("a", "a", 0, 0)
	b := net.AddSwitch("b", "b", 0, 1)
	c := net.AddSwitch("c", "c", 0, 2)
	net.AddDuplex(a, b, 1)
	net.AddDuplex(b, c, 1)
	pair := DisjointPair(net, a, c, nil)
	if len(pair) != 1 {
		t.Fatalf("%d paths on a chain, want 1", len(pair))
	}
}

func TestDisjointPairUnreachable(t *testing.T) {
	net := topology.NewNetwork("u")
	a := net.AddSwitch("a", "a", 0, 0)
	b := net.AddSwitch("b", "b", 0, 1)
	if pair := DisjointPair(net, a, b, nil); pair != nil {
		t.Fatalf("expected nil, got %v", pair)
	}
}

func TestDisjointPairRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(6)
		net := topology.NewNetwork("r")
		for i := 0; i < n; i++ {
			net.AddSwitch("sw", "s", float64(i), 0)
		}
		perm := rng.Perm(n)
		for i := 0; i < n; i++ {
			net.AddDuplex(topology.SwitchID(perm[i]), topology.SwitchID(perm[(i+1)%n]), 1)
		}
		for i := 0; i < n/2; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b && net.FindLink(topology.SwitchID(a), topology.SwitchID(b)) == topology.None {
				net.AddDuplex(topology.SwitchID(a), topology.SwitchID(b), 1)
			}
		}
		src := topology.SwitchID(rng.Intn(n))
		dst := topology.SwitchID(rng.Intn(n))
		if src == dst {
			continue
		}
		pair := DisjointPair(net, src, dst, nil)
		// A ring is 2-edge-connected: a disjoint pair always exists.
		if len(pair) != 2 {
			t.Fatalf("trial %d: %d paths on a 2-edge-connected graph", trial, len(pair))
		}
		used := map[topology.LinkID]bool{}
		for _, p := range pair {
			v := src
			for _, l := range p {
				lk := net.Links[l]
				if lk.Src != v {
					t.Fatalf("trial %d: disconnected path", trial)
				}
				v = lk.Dst
				can := l
				if lk.Twin != topology.None && lk.Twin < l {
					can = lk.Twin
				}
				if used[can] {
					t.Fatalf("trial %d: shared physical link", trial)
				}
				used[can] = true
			}
			if v != dst {
				t.Fatalf("trial %d: wrong endpoint", trial)
			}
		}
	}
}
