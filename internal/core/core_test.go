package core

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// fig25Fixture builds the 4-switch network of Figures 2–5 with manually
// constructed tunnels matching the paper's walkthroughs.
type fig25Fixture struct {
	net      *topology.Network
	tun      *tunnel.Set
	s1, s2   topology.SwitchID
	s3, s4   topology.SwitchID
	f24, f34 tunnel.Flow // {s2,s3}→s4
	f14      tunnel.Flow // s1→s4 (the new flow of Fig 3)
	mkTunnel func(f tunnel.Flow, hops ...topology.SwitchID) *tunnel.Tunnel
}

func newFig25(t *testing.T) *fig25Fixture {
	t.Helper()
	net := topology.Example4()
	fx := &fig25Fixture{net: net, tun: tunnel.NewSet(net)}
	get := func(name string) topology.SwitchID {
		id, ok := net.SwitchByName(name)
		if !ok {
			t.Fatalf("switch %s missing", name)
		}
		return id
	}
	fx.s1, fx.s2, fx.s3, fx.s4 = get("s1"), get("s2"), get("s3"), get("s4")
	fx.f24 = tunnel.Flow{Src: fx.s2, Dst: fx.s4}
	fx.f34 = tunnel.Flow{Src: fx.s3, Dst: fx.s4}
	fx.f14 = tunnel.Flow{Src: fx.s1, Dst: fx.s4}
	fx.mkTunnel = func(f tunnel.Flow, hops ...topology.SwitchID) *tunnel.Tunnel {
		var links []topology.LinkID
		for i := 0; i+1 < len(hops); i++ {
			l := net.FindLink(hops[i], hops[i+1])
			if l == topology.None {
				t.Fatalf("no link %d→%d", hops[i], hops[i+1])
			}
			links = append(links, l)
		}
		return tunnelFromPath(net, f, links)
	}
	// Tunnels: {s2,s3}→s4 each have a direct tunnel and one via s1;
	// s1→s4 has only the direct tunnel.
	fx.tun.Add(fx.f24, fx.mkTunnel(fx.f24, fx.s2, fx.s4), fx.mkTunnel(fx.f24, fx.s2, fx.s1, fx.s4))
	fx.tun.Add(fx.f34, fx.mkTunnel(fx.f34, fx.s3, fx.s4), fx.mkTunnel(fx.f34, fx.s3, fx.s1, fx.s4))
	fx.tun.Add(fx.f14, fx.mkTunnel(fx.f14, fx.s1, fx.s4))
	return fx
}

// tunnelFromPath mirrors the unexported constructor in package tunnel.
func tunnelFromPath(net *topology.Network, f tunnel.Flow, links []topology.LinkID) *tunnel.Tunnel {
	t := &tunnel.Tunnel{Flow: f, Links: links}
	if len(links) > 0 {
		t.Switches = append(t.Switches, net.Links[links[0]].Src)
		for _, l := range links {
			t.Switches = append(t.Switches, net.Links[l].Dst)
		}
	}
	return t
}

func TestBasicTEMaxThroughput(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 10, fx.f34: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.TotalRate()-20) > 1e-6 {
		t.Fatalf("throughput %v, want 20", st.TotalRate())
	}
	if stats.Constraints == 0 || stats.Vars == 0 {
		t.Fatal("stats not populated")
	}
	// No link may be over capacity.
	for l, load := range st.LinkLoads(fx.tun) {
		if load > fx.net.Links[l].Capacity+1e-6 {
			t.Fatalf("link %d overloaded: %v", l, load)
		}
	}
}

func TestBasicTEDemandCap(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-3) > 1e-9 {
		t.Fatalf("rate %v, want 3 (demand-capped)", st.Rate[fx.f24])
	}
}

func TestBasicTEUsesMultipleTunnels(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	// Demand above single-link capacity forces use of the via-s1 tunnel.
	st, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-14) > 1e-6 {
		t.Fatalf("rate %v, want 14", st.Rate[fx.f24])
	}
	if st.Alloc[fx.f24][1] < 4-1e-6 {
		t.Fatalf("via-s1 tunnel carries %v, want ≥ 4", st.Alloc[fx.f24][1])
	}
}

// TestFlowZeroedWhenTauNonPositive: s1→s4 has one tunnel; ke=1 can kill it,
// so FFC must refuse the flow entirely.
func TestFlowZeroedWhenTauNonPositive(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f14: 5}, Prot: Protection{Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rate[fx.f14] != 0 {
		t.Fatalf("single-tunnel flow admitted %v under ke=1, want 0", st.Rate[fx.f14])
	}
}

func TestEncodingsAgreeOnExamples(t *testing.T) {
	fx := newFig25(t)
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 10, []float64{7, 3}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 10, []float64{7, 3}
	in := Input{
		Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10},
		Prot:    Protection{Kc: 2, Ke: 1},
		Prev:    prev,
	}
	var objs []float64
	for _, enc := range []Encoding{SortNet, Compact, Naive} {
		s := NewSolver(fx.net, fx.tun, Options{Encoding: enc})
		st, _, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		objs = append(objs, st.TotalRate())
	}
	// SortNet and Compact encode the identical feasible region; Naive is
	// the ground truth. Tunnels here are link-disjoint so all three match
	// (the paper's exactness case).
	if math.Abs(objs[0]-objs[1]) > 1e-5 || math.Abs(objs[0]-objs[2]) > 1e-5 {
		t.Fatalf("encodings disagree: sortnet=%v compact=%v naive=%v", objs[0], objs[1], objs[2])
	}
}

// randomNetwork builds a small random connected duplex network, lays out
// tunnels for a few random flows, and returns everything.
func randomNetwork(rng *rand.Rand, nSwitch, nFlow int) (*topology.Network, *tunnel.Set, []tunnel.Flow) {
	net := topology.NewNetwork("rand")
	for i := 0; i < nSwitch; i++ {
		net.AddSwitch("sw", "site", float64(i), float64(i))
	}
	// Random ring (2-connected, so disjoint tunnel pairs exist) plus chords.
	perm := rng.Perm(nSwitch)
	for i := 0; i < nSwitch; i++ {
		a, b := perm[i], perm[(i+1)%nSwitch]
		net.AddDuplex(topology.SwitchID(a), topology.SwitchID(b), 5+rng.Float64()*10)
	}
	for i := 0; i < nSwitch; i++ {
		a, b := rng.Intn(nSwitch), rng.Intn(nSwitch)
		if a == b || net.FindLink(topology.SwitchID(a), topology.SwitchID(b)) != topology.None {
			continue
		}
		net.AddDuplex(topology.SwitchID(a), topology.SwitchID(b), 5+rng.Float64()*10)
	}
	var flows []tunnel.Flow
	seen := map[tunnel.Flow]bool{}
	for len(flows) < nFlow {
		f := tunnel.Flow{Src: topology.SwitchID(rng.Intn(nSwitch)), Dst: topology.SwitchID(rng.Intn(nSwitch))}
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		flows = append(flows, f)
	}
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 3, P: 1, Q: 3})
	var ok []tunnel.Flow
	for _, f := range flows {
		if len(set.Tunnels(f)) > 0 {
			ok = append(ok, f)
		}
	}
	return net, set, ok
}

func TestMinMLUObjective(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{Objective: MinMLU})
	// Offered 14 through a 10-capacity direct path with a via alternative:
	// MLU should be 14/20 split across both tunnels = 0.7.
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-14) > 1e-6 {
		t.Fatalf("MinMLU must carry offered demand, got %v", st.Rate[fx.f24])
	}
	if math.Abs(stats.MLU-0.7) > 1e-5 {
		t.Fatalf("MLU %v, want 0.7", stats.MLU)
	}
}

func TestMinMLUOversubscribed(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{Objective: MinMLU})
	st, stats, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MLU <= 1 {
		t.Fatalf("MLU %v, want > 1 for oversubscribed demand", stats.MLU)
	}
	_ = st
}

func TestUncertainFlows(t *testing.T) {
	fx := newFig25(t)
	// Flow f24's configuration is uncertain between older [10,0] and
	// prev [7,3]. It must stay pinned to prev and both are planned for.
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 10, []float64{7, 3}
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 10, []float64{10, 0}
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10},
		Prot:    Protection{Kc: 1},
		Prev:    prev,
		Uncertain: map[tunnel.Flow]Uncertain{
			fx.f24: {AllocOlder: []float64{10, 0}, RateOlder: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-10) > 1e-9 || math.Abs(st.Alloc[fx.f24][0]-7) > 1e-9 || math.Abs(st.Alloc[fx.f24][1]-3) > 1e-9 {
		t.Fatalf("uncertain flow not pinned: %v %v", st.Rate[fx.f24], st.Alloc[fx.f24])
	}
	// s1−s4 must reserve for f24's worst old config (3 via s1) plus one
	// stale switch: new flow ≤ 10 − 3(uncertain worst) = 7, minus 0 for
	// f34 (no old via-s1 weight) → admitted 7.
	if st.Rate[fx.f14] > 7+1e-6 {
		t.Fatalf("new flow %v exceeds the uncertainty-safe bound 7", st.Rate[fx.f14])
	}
}

func TestRateCapsAndFixedRates(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{
		Demands:    demand.Matrix{fx.f24: 10, fx.f34: 10},
		RateCaps:   map[tunnel.Flow]float64{fx.f24: 4},
		FixedRates: map[tunnel.Flow]float64{fx.f34: 2.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rate[fx.f24] > 4+1e-9 {
		t.Fatalf("rate cap violated: %v", st.Rate[fx.f24])
	}
	if math.Abs(st.Rate[fx.f34]-2.5) > 1e-9 {
		t.Fatalf("fixed rate not honored: %v", st.Rate[fx.f34])
	}
}

func TestControlFFCRequiresPrev(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	_, _, err := s.Solve(Input{Demands: demand.Matrix{fx.f24: 1}, Prot: Protection{Kc: 1}})
	if err == nil {
		t.Fatal("expected error: kc>0 without previous state")
	}
}

func TestOverloadedLinkSkipsKc(t *testing.T) {
	// §4.5: when the previous state already overloads a link, control FFC
	// for that link is waived so traffic can be moved away at all.
	fx := newFig25(t)
	prev := NewState()
	prev.Rate[fx.f24], prev.Alloc[fx.f24] = 14, []float64{2, 12} // 12 on s1−s4: overloaded
	prev.Rate[fx.f34], prev.Alloc[fx.f34] = 0, []float64{0, 0}
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 14},
		Prot:    Protection{Kc: 2},
		Prev:    prev,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without the waiver this would be infeasible at full rate; with it
	// the flow keeps its 14 units.
	if math.Abs(st.Rate[fx.f24]-14) > 1e-6 {
		t.Fatalf("rate %v, want 14 via the §4.5 waiver", st.Rate[fx.f24])
	}
}

func TestCapacityOverride(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	direct := fx.net.FindLink(fx.s2, fx.s4)
	via1 := fx.net.FindLink(fx.s2, fx.s1)
	via2 := fx.net.FindLink(fx.s1, fx.s4)
	st, _, err := s.Solve(Input{
		Demands: demand.Matrix{fx.f24: 10},
		Capacity: map[topology.LinkID]float64{
			direct: 2, via1: 3, via2: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[fx.f24]-5) > 1e-6 {
		t.Fatalf("rate %v, want 5 under shrunken capacities", st.Rate[fx.f24])
	}
}

func TestStatsEncodingAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	net, tun, flows := randomNetwork(rng, 7, 6)
	demands := demand.Matrix{}
	for _, f := range flows {
		demands[f] = 5
	}
	s := NewSolver(net, tun, Options{})
	prev, _, err := s.Solve(Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Demands: demands, Prot: Protection{Kc: 2, Ke: 1}, Prev: prev}
	sn := NewSolver(net, tun, Options{Encoding: SortNet})
	_, stSN, err := sn.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	cp := NewSolver(net, tun, Options{Encoding: Compact})
	_, stCP, err := cp.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if stSN.EncodingConstraints == 0 || stCP.EncodingConstraints == 0 {
		t.Fatal("encoding accounting missing")
	}
}

func TestDownLinksExcludeTunnels(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	direct := fx.net.FindLink(fx.s2, fx.s4)
	st, _, err := s.Solve(Input{
		Demands:   demand.Matrix{fx.f24: 14},
		DownLinks: map[topology.LinkID]bool{direct: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Alloc[fx.f24][0] != 0 {
		t.Fatalf("dead tunnel carries %v", st.Alloc[fx.f24][0])
	}
	if math.Abs(st.Rate[fx.f24]-10) > 1e-6 {
		t.Fatalf("rate %v, want 10 (via-s1 only)", st.Rate[fx.f24])
	}
}

func TestDownLinkWithFFCTauOverAlive(t *testing.T) {
	// With the direct tunnel down only one tunnel survives; ke=1 can kill
	// it, so the flow must be refused entirely.
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	direct := fx.net.FindLink(fx.s2, fx.s4)
	st, _, err := s.Solve(Input{
		Demands:   demand.Matrix{fx.f24: 14},
		Prot:      Protection{Ke: 1},
		DownLinks: map[topology.LinkID]bool{direct: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rate[fx.f24] != 0 {
		t.Fatalf("rate %v, want 0 under ke=1 with one surviving tunnel", st.Rate[fx.f24])
	}
}

func TestDownSwitchExcludesTunnels(t *testing.T) {
	fx := newFig25(t)
	s := NewSolver(fx.net, fx.tun, Options{})
	st, _, err := s.Solve(Input{
		Demands:      demand.Matrix{fx.f24: 14},
		DownSwitches: map[topology.SwitchID]bool{fx.s1: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Alloc[fx.f24][1] != 0 {
		t.Fatalf("tunnel via failed switch carries %v", st.Alloc[fx.f24][1])
	}
	if math.Abs(st.Rate[fx.f24]-10) > 1e-6 {
		t.Fatalf("rate %v, want 10 (direct only)", st.Rate[fx.f24])
	}
}
