package tunnel

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/topology"
)

func mustSwitch(t *testing.T, n *topology.Network, name string) topology.SwitchID {
	t.Helper()
	id, ok := n.SwitchByName(name)
	if !ok {
		t.Fatalf("switch %q not found", name)
	}
	return id
}

func TestShortestPathDirect(t *testing.T) {
	n := topology.Example4()
	s1, s4 := mustSwitch(t, n, "s1"), mustSwitch(t, n, "s4")
	p := ShortestPath(n, s1, s4, UnitWeights, nil, nil)
	if len(p) != 1 {
		t.Fatalf("path length %d, want 1 (direct link)", len(p))
	}
	if n.Links[p[0]].Src != s1 || n.Links[p[0]].Dst != s4 {
		t.Fatalf("wrong link %+v", n.Links[p[0]])
	}
}

func TestShortestPathAvoidsBans(t *testing.T) {
	n := topology.Example4()
	s1, s4 := mustSwitch(t, n, "s1"), mustSwitch(t, n, "s4")
	direct := n.FindLink(s1, s4)
	ban := map[topology.LinkID]bool{direct: true}
	p := ShortestPath(n, s1, s4, UnitWeights, ban, nil)
	if len(p) != 2 {
		t.Fatalf("detour length %d, want 2", len(p))
	}
	for _, l := range p {
		if l == direct {
			t.Fatal("used banned link")
		}
	}
	// Ban all intermediate switches: no path remains.
	s2, s3 := mustSwitch(t, n, "s2"), mustSwitch(t, n, "s3")
	bs := map[topology.SwitchID]bool{s2: true, s3: true}
	if q := ShortestPath(n, s1, s4, UnitWeights, ban, bs); q != nil {
		t.Fatalf("expected no path, got %v", q)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	n := topology.NewNetwork("u")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	if p := ShortestPath(n, a, b, UnitWeights, nil, nil); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
}

func TestShortestPathRespectsWeights(t *testing.T) {
	// Two-hop route through a fat path should win under inverse-capacity weights
	// when the direct link is thin.
	n := topology.NewNetwork("w")
	a := n.AddSwitch("a", "a", 0, 0)
	b := n.AddSwitch("b", "b", 0, 1)
	c := n.AddSwitch("c", "c", 1, 0)
	n.AddDuplex(a, b, 1)   // thin direct
	n.AddDuplex(a, c, 100) // fat detour
	n.AddDuplex(c, b, 100)
	inverseCapacity := func(l topology.LinkID) float64 { return 1 / n.Links[l].Capacity }
	p := ShortestPath(n, a, b, inverseCapacity, nil, nil)
	if len(p) != 2 {
		t.Fatalf("expected 2-hop fat path, got %d hops", len(p))
	}
}

func TestKShortestYen(t *testing.T) {
	n := topology.Example4()
	s1, s4 := mustSwitch(t, n, "s1"), mustSwitch(t, n, "s4")
	paths := KShortest(n, s1, s4, 4, UnitWeights)
	if len(paths) < 3 {
		t.Fatalf("got %d paths, want ≥ 3", len(paths))
	}
	// Sorted by length, loopless, distinct.
	for i := 1; i < len(paths); i++ {
		if len(paths[i]) < len(paths[i-1]) {
			t.Fatalf("paths not sorted: %d then %d hops", len(paths[i-1]), len(paths[i]))
		}
		if samePath(paths[i], paths[i-1]) {
			t.Fatal("duplicate path")
		}
	}
	for _, p := range paths {
		seen := map[topology.SwitchID]bool{s1: true}
		for _, l := range p {
			d := n.Links[l].Dst
			if seen[d] {
				t.Fatalf("loop at switch %d in path %v", d, p)
			}
			seen[d] = true
		}
	}
}

func TestKShortestOnTestbed(t *testing.T) {
	n := topology.Testbed()
	s3, s7 := mustSwitch(t, n, "s3"), mustSwitch(t, n, "s7")
	paths := KShortest(n, s3, s7, 6, UnitWeights)
	if len(paths) < 4 {
		t.Fatalf("got %d paths, want ≥ 4", len(paths))
	}
}

func TestLayoutPQRespected(t *testing.T) {
	n := topology.Testbed()
	flows := []Flow{
		{mustSwitch(t, n, "s3"), mustSwitch(t, n, "s7")},
		{mustSwitch(t, n, "s4"), mustSwitch(t, n, "s5")},
		{mustSwitch(t, n, "s1"), mustSwitch(t, n, "s8")},
	}
	set := Layout(n, flows, LayoutConfig{TunnelsPerFlow: 4, P: 1, Q: 3})
	for _, f := range flows {
		ts := set.Tunnels(f)
		if len(ts) == 0 {
			t.Fatalf("flow %v got no tunnels", f)
		}
		p, q := set.PQ(f, nil)
		if p > 1 {
			t.Fatalf("flow %v: p = %d, want ≤ 1", f, p)
		}
		if q > 3 {
			t.Fatalf("flow %v: q = %d, want ≤ 3", f, q)
		}
		for _, tn := range ts {
			if tn.Switches[0] != f.Src || tn.Switches[len(tn.Switches)-1] != f.Dst {
				t.Fatalf("tunnel endpoints wrong: %v for flow %v", tn.Switches, f)
			}
		}
	}
}

func TestLayoutLinkDisjointSurvivesSingleFailure(t *testing.T) {
	// With p=1 (physically link-disjoint), any single physical link
	// failure kills at most one tunnel.
	n := topology.Testbed()
	f := Flow{mustSwitch(t, n, "s3"), mustSwitch(t, n, "s7")}
	set := Layout(n, []Flow{f}, LayoutConfig{TunnelsPerFlow: 3, P: 1, Q: 3})
	ts := set.Tunnels(f)
	if len(ts) < 2 {
		t.Fatalf("need ≥ 2 tunnels, got %d", len(ts))
	}
	for _, l := range n.Links {
		down := map[topology.LinkID]bool{l.ID: true}
		if l.Twin != topology.None {
			down[l.Twin] = true
		}
		alive := 0
		for _, tn := range ts {
			if tn.Alive(n, down, nil) {
				alive++
			}
		}
		if len(ts)-alive > 1 {
			t.Fatalf("link %d killed %d tunnels despite p=1", l.ID, len(ts)-alive)
		}
	}
}

func TestTunnelAliveTwinFailure(t *testing.T) {
	n := topology.Example4()
	s1, s4 := mustSwitch(t, n, "s1"), mustSwitch(t, n, "s4")
	fw := n.FindLink(s1, s4)
	tn := newTunnel(n, Flow{s1, s4}, []topology.LinkID{fw})
	// Failing only the reverse direction must still kill the tunnel
	// (physical failure).
	tw := n.Links[fw].Twin
	if tn.Alive(n, map[topology.LinkID]bool{tw: true}, nil) {
		t.Fatal("tunnel survived twin failure")
	}
	if !tn.Alive(n, nil, nil) {
		t.Fatal("tunnel dead with no faults")
	}
	if tn.Alive(n, nil, map[topology.SwitchID]bool{s4: true}) {
		t.Fatal("tunnel survived endpoint switch failure")
	}
}

func TestRescaleProportional(t *testing.T) {
	n := topology.Example4()
	s2, s4 := mustSwitch(t, n, "s2"), mustSwitch(t, n, "s4")
	f := Flow{s2, s4}
	set := Layout(n, []Flow{f}, LayoutConfig{TunnelsPerFlow: 3, P: 1, Q: 3})
	ts := set.Tunnels(f)
	if len(ts) < 3 {
		t.Fatalf("want 3 tunnels, got %d", len(ts))
	}
	// Weights (0.5, 0.3, 0.2): failing tunnel 2's first link rescales to
	// (0.5/0.8, 0.3/0.8, 0) — the paper's §2.1 example.
	w := []float64{0.5, 0.3, 0.2}
	dead := ts[2].Links[0]
	down := map[topology.LinkID]bool{dead: true}
	if tw := n.Links[dead].Twin; tw != topology.None {
		down[tw] = true
	}
	// The failed link may also belong to tunnel 0 or 1 in theory, but the
	// layout is link-disjoint so only tunnel 2 dies.
	loads := set.Rescale(f, w, 1.0, down, nil)
	if math.Abs(loads[0]-0.5/0.8) > 1e-9 || math.Abs(loads[1]-0.3/0.8) > 1e-9 || loads[2] != 0 {
		t.Fatalf("rescaled loads = %v, want [0.625 0.375 0]", loads)
	}
}

func TestRescaleBlackhole(t *testing.T) {
	n := topology.Example4()
	s2, s4 := mustSwitch(t, n, "s2"), mustSwitch(t, n, "s4")
	f := Flow{s2, s4}
	set := Layout(n, []Flow{f}, LayoutConfig{TunnelsPerFlow: 2, P: 3, Q: 3})
	// Fail every link: no residual tunnels, all loads zero.
	down := map[topology.LinkID]bool{}
	for _, l := range n.Links {
		down[l.ID] = true
	}
	loads := set.Rescale(f, []float64{0.7, 0.3}, 1.0, down, nil)
	for _, v := range loads {
		if v != 0 {
			t.Fatalf("blackhole should zero all loads, got %v", loads)
		}
	}
}

func TestWeights(t *testing.T) {
	w := Weights([]float64{2, 6, 2})
	if math.Abs(w[0]-0.2) > 1e-12 || math.Abs(w[1]-0.6) > 1e-12 {
		t.Fatalf("weights %v", w)
	}
	u := Weights([]float64{0, 0})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("zero-alloc weights should be uniform, got %v", u)
	}
}

func TestPQComputation(t *testing.T) {
	n := topology.Example4()
	s2, s4 := mustSwitch(t, n, "s2"), mustSwitch(t, n, "s4")
	s1, s3 := mustSwitch(t, n, "s1"), mustSwitch(t, n, "s3")
	f := Flow{s2, s4}
	set := NewSet(n)
	// Two tunnels sharing the s1−s4 link (via different first hops is not
	// possible from s2... construct explicitly): s2→s1→s4 and s2→s3→s1→s4.
	p1 := []topology.LinkID{n.FindLink(s2, s1), n.FindLink(s1, s4)}
	p2 := []topology.LinkID{n.FindLink(s2, s3), n.FindLink(s3, s1), n.FindLink(s1, s4)}
	set.Add(f, newTunnel(n, f, p1), newTunnel(n, f, p2))
	p, q := set.PQ(f, nil)
	if p != 2 {
		t.Fatalf("p = %d, want 2 (shared s1→s4)", p)
	}
	if q != 2 {
		t.Fatalf("q = %d, want 2 (both transit s1)", q)
	}
	// A third tunnel on the reverse direction of s1−s4's twin pair is
	// the same physical link; a mask drops the tunnels it leaves out.
	p3 := []topology.LinkID{n.FindLink(s2, s4), n.FindLink(s4, s1), n.FindLink(s1, s4)}
	set.Add(f, newTunnel(n, f, p3))
	for _, tc := range []struct {
		alive []bool
		p, q  int
	}{
		{nil, 4, 3},
		{[]bool{true, true, true}, 4, 3},
		{[]bool{true, false, true}, 3, 2},
		{[]bool{false, false, true}, 2, 1},
		{[]bool{false, false, false}, 0, 0},
	} {
		if p, q := set.PQ(f, tc.alive); p != tc.p || q != tc.q {
			t.Fatalf("PQ(alive %v) = (%d, %d), want (%d, %d)", tc.alive, p, q, tc.p, tc.q)
		}
	}
}

func TestLayoutOnLNetAllFlowsGetTunnels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := topology.LNet(topology.LNetConfig{}, rng)
	var flows []Flow
	// A sample of inter-site flows.
	for i := 0; i < 20; i++ {
		a := topology.SwitchID(rng.Intn(n.NumSwitches()))
		b := topology.SwitchID(rng.Intn(n.NumSwitches()))
		if a == b || n.Switches[a].Site == n.Switches[b].Site {
			continue
		}
		flows = append(flows, Flow{a, b})
	}
	set := Layout(n, flows, LayoutConfig{})
	for _, f := range flows {
		ts := set.Tunnels(f)
		if len(ts) < 2 {
			t.Fatalf("flow %v has %d tunnels, want ≥ 2", f, len(ts))
		}
		p, q := set.PQ(f, nil)
		if p > 1 || q > 3 {
			t.Fatalf("flow %v violates (1,3): p=%d q=%d", f, p, q)
		}
	}
}

func TestLayoutKShortestAblation(t *testing.T) {
	n := topology.Testbed()
	f := Flow{mustSwitch(t, n, "s3"), mustSwitch(t, n, "s7")}
	set := LayoutKShortest(n, []Flow{f}, 5, nil)
	ts := set.Tunnels(f)
	if len(ts) < 3 {
		t.Fatalf("k-shortest layout gave %d tunnels", len(ts))
	}
	// Unconstrained layout may share links; p may exceed 1 — just verify
	// tunnels are valid paths.
	for _, tn := range ts {
		if tn.Switches[0] != f.Src || tn.Switches[len(tn.Switches)-1] != f.Dst {
			t.Fatalf("bad tunnel %v", tn.Switches)
		}
	}
}
