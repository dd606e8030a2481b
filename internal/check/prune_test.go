package check

// Bound-pruned enumeration (prune, linkBounds, restrict): the certificate
// must stay bitwise the oracle's on the plans the daemon certifies, with
// the restriction visibly engaged, and the per-link load bound must
// dominate every case the oracle evaluates.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/obs"
	"ffc/internal/sim"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// daemonProt is the protection ffcd certifies in the benchmark.
var daemonProt = core.Protection{Ke: 2, Kv: 1}

// daemonStep is one install of the daemon fixture's churn sequence.
type daemonStep struct {
	name     string
	st, prev *core.State
	down     map[topology.LinkID]bool
}

var (
	daemonOnce sync.Once
	daemonFx   struct {
		net   *topology.Network
		set   *tunnel.Set
		steps []daemonStep
		err   error
	}
)

// daemonPlans solves the plans ffcd installs on the benchmark's L-Net: the
// 8-site seed-1 topology, gravity demands with 5 % drift calibrated to
// traffic scale 1, six (1,3)-disjoint tunnels a flow, one Session at ffcd's
// options and (0,2,1) through redraws, a loaded link down, drift while it
// is down, and the link back up.
func daemonPlans(tb testing.TB) (*topology.Network, *tunnel.Set, []daemonStep) {
	tb.Helper()
	daemonOnce.Do(func() {
		net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
		series := demand.Generate(net, demand.Config{Intervals: 4, NoiseSigma: 1e-12}, rand.New(rand.NewSource(8)))
		rng := rand.New(rand.NewSource(1))
		for _, m := range series {
			for _, f := range m.Flows() {
				m[f] *= math.Exp(rng.NormFloat64() * 0.05)
			}
		}
		set := tunnel.Layout(net, sim.FlowsOf(series), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
		scale, err := sim.CalibrateScale(core.NewSolver(net, set, core.Options{}), series, 0.99, 3)
		if err != nil {
			daemonFx.err = err
			return
		}
		series = sim.ScaleSeries(series, scale)
		se := core.NewSolver(net, set, core.Options{MiceFraction: 0.01, OldLoadSkip: 1e-5}).NewSession()
		down := map[topology.LinkID]bool{}
		prev := core.NewState()
		for i, step := range []struct {
			name string
			dem  demand.Matrix
			down map[topology.LinkID]bool
		}{
			{"redraw 0", series[0], nil},
			{"redraw 1", series[1], nil},
			{"link down", series[1], down},
			{"drift while down", series[2], down},
			{"link up", series[3], nil},
		} {
			st, _, err := se.Solve(core.Input{Demands: step.dem, Prot: daemonProt, Prev: prev, DownLinks: step.down})
			if err != nil {
				daemonFx.err = fmt.Errorf("%s: %w", step.name, err)
				return
			}
			daemonFx.steps = append(daemonFx.steps, daemonStep{step.name, st, prev, step.down})
			if i == 1 {
				loads := st.LinkLoads(set)
				var loaded topology.LinkID
				for _, l := range net.Links {
					if loads[l.ID] > loads[loaded] {
						loaded = l.ID
					}
				}
				down[loaded] = true
				if tw := net.Links[loaded].Twin; tw != topology.None {
					down[tw] = true
				}
			}
			prev = st
		}
		daemonFx.net, daemonFx.set = net, set
	})
	if daemonFx.err != nil {
		tb.Fatalf("solving the daemon fixture: %v", daemonFx.err)
	}
	return daemonFx.net, daemonFx.set, daemonFx.steps
}

// raceSteps keeps a redraw and the link-down step under the race detector,
// where each oracle pass over a daemon plan takes seconds.
func raceSteps(steps []daemonStep) []daemonStep {
	if raceEnabled {
		return steps[1:3]
	}
	return steps
}

// loadedLinks counts the links some carrying tunnel crosses.
func loadedLinks(c *checker) int {
	on := make([]bool, len(c.cap))
	n := 0
	for _, fl := range c.flows {
		for _, t := range fl.tuns {
			for _, l := range t.links {
				if !t.dead && t.w > 0 && !on[l] {
					on[l] = true
					n++
				}
			}
		}
	}
	return n
}

// TestPrunedCertifyMatchesOracle: on every plan of the daemon's churn
// sequence the certificate is bitwise the oracle's at any core count, while
// fewer than half the loaded links are evaluated past the single-link
// shards. A rate-bumped copy, just violating in a two-link case, must stop
// under FailFast exactly where the serial oracle stops.
func TestPrunedCertifyMatchesOracle(t *testing.T) {
	net, set, steps := daemonPlans(t)
	for _, s := range raceSteps(steps) {
		p := Params{Prot: daemonProt, DownLinks: s.down}
		want, err := oracleCertify(net, set, s.st, s.prev, p)
		if err != nil {
			t.Fatal(err)
		}
		if !want.OK || !want.Exact {
			t.Fatalf("%s: daemon plan not certified exactly: %s", s.name, want.Summary())
		}
		atProcs(t, []int{1, 2, 4}, func(t *testing.T, procs int) {
			got, err := Certify(net, set, s.st, s.prev, p)
			if err != nil {
				t.Fatal(err)
			}
			if !certsEqual(got, want) {
				t.Fatalf("%s procs=%d: certificate differs from the oracle's\ngot:    %+v\noracle: %+v", s.name, procs, *got, *want)
			}
		})
		requireKept(t, s.name, net, set, s.st, s.prev, p)

		bumped := false
		for delta := 1e-5; delta < 1 && !bumped; delta *= 4 {
			mut := clonePlan(s.st)
			for f := range mut.Rate {
				mut.Rate[f] *= 1 + delta
			}
			p.FailFast = true
			cert, err := Certify(net, set, mut, mut, p)
			if err != nil {
				t.Fatal(err)
			}
			if cert.OK {
				continue
			}
			bumped = true
			if n := len(cert.Violation.Faults.Links); n != 2 {
				t.Fatalf("%s ×(1+%g): first violation fails %d links, want 2 (a pruned shard)", s.name, delta, n)
			}
			requireKept(t, s.name+" bumped", net, set, mut, mut, p)
			requireFailFastFirst(t, net, set, mut, p)
		}
		if !bumped {
			t.Fatalf("%s: no rate bump below ×2 violates", s.name)
		}
	}
}

// requireKept fails unless the exact search evaluated fewer than half the
// loaded links in its pruned shards.
func requireKept(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) {
	t.Helper()
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		t.Fatal(err)
	}
	res := c.exactData()
	if loaded := loadedLinks(c); 2*res.linksKept >= loaded {
		t.Fatalf("%s: kept %d of %d loaded links: the restriction did not engage", name, res.linksKept, loaded)
	}
}

// requireBoundsDominate certifies a plan with the oracle against link
// capacities set to linkBounds at the plan's (ke, kv): a negative worst
// slack is an evaluated case loading some link beyond its bound. It
// reports false when the plan has no bounds (a tunnel repeats a link).
func requireBoundsDominate(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool {
	t.Helper()
	p.Prot.Kc, p.Mode, p.FailFast = 0, Exact, false
	c, err := prepare(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	ub := c.linkBounds()
	if ub == nil {
		return false
	}
	p.Capacity = map[topology.LinkID]float64{}
	for l, u := range ub {
		p.Capacity[topology.LinkID(l)] = u
	}
	cert, err := oracleCertify(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if cert.WorstSlack < 0 {
		t.Fatalf("%s %+v: load exceeds its bound by %g on %s under %+v",
			name, p.Prot, -cert.WorstSlack, cert.WorstLink, cert.WorstCase)
	}
	return true
}

// TestLinkBoundsDominateCases: no case the oracle evaluates loads a link
// beyond linkBounds, on solver plans and on the random states that carry
// pre-down sets, capacity overrides, missing and short allocation vectors
// and zero weights, and beside a wide flow.
func TestLinkBoundsDominateCases(t *testing.T) {
	for _, prot := range []core.Protection{{Ke: 2, Kv: 1}, {Ke: 2}, {Kc: 2, Ke: 1}} {
		fx := lnetPlan(t, prot)
		requireBoundsDominate(t, "lnet", fx.net, fx.set, fx.st, Params{Prot: prot})
	}
	net, set, steps := daemonPlans(t)
	for _, s := range raceSteps(steps) {
		requireBoundsDominate(t, s.name, net, set, s.st, Params{Prot: daemonProt, DownLinks: s.down})
	}
	if !raceEnabled {
		net, set, _, st := snetPlan(t)
		requireBoundsDominate(t, "snet", net, set, st, Params{Prot: snetProt})
	}
	net, set, st, _ := fatTreePlan(t)
	for _, prot := range []core.Protection{{Ke: 1, Kv: 1}, {Ke: 2, Kv: 1}} {
		requireBoundsDominate(t, "fattree", net, set, st, Params{Prot: prot})
	}
	net, set, st = widePlan(t)
	for _, p := range wideParams {
		requireBoundsDominate(t, "wide", net, set, st, p)
	}
	for trial := 0; trial < 120; trial++ {
		net, set, st, p := randomTrial(trial)
		if !requireBoundsDominate(t, fmt.Sprintf("trial %d", trial), net, set, st, p) {
			t.Fatalf("trial %d: no link bounds", trial)
		}
	}
}

// TestPruneThresholdNotNegative: the pruning threshold is max(S, 0), never
// a negative worst slack. Here the single-link shards' worst slack is
// −5e-4, inside a 1000-unit link's tolerance, while a two-link case
// overloads a 1-unit link by 1e-4, far beyond its own. That link's bound
// sits 1e-4 above its capacity: a threshold of −5e-4 would prune it and
// certify the plan.
func TestPruneThresholdNotNegative(t *testing.T) {
	net := topology.NewNetwork("straddle")
	for _, name := range []string{"a", "b", "x", "y", "c", "d"} {
		net.AddSwitch(name, name, 0, 0)
	}
	a, b, x, y, c, d := topology.SwitchID(0), topology.SwitchID(1), topology.SwitchID(2), topology.SwitchID(3), topology.SwitchID(4), topology.SwitchID(5)
	small := net.AddDuplex(a, b, 1)
	for _, hop := range [][2]topology.SwitchID{{a, x}, {x, b}, {a, y}, {y, b}} {
		net.AddDuplex(hop[0], hop[1], 10)
	}
	net.AddDuplex(c, d, 1000)
	set := tunnel.NewSet(net)
	f, g := tunnel.Flow{Src: a, Dst: b}, tunnel.Flow{Src: c, Dst: d}
	set.Add(f, pathOf(net, a, b), pathOf(net, a, x, b), pathOf(net, a, y, b))
	set.Add(g, pathOf(net, c, d))
	st := core.NewState()
	st.Rate[f], st.Alloc[f] = 1.0001, []float64{1, 1, 1}
	st.Rate[g], st.Alloc[g] = 1000.0005, []float64{1}

	p := Params{Prot: core.Protection{Ke: 2}, Mode: Exact}
	cert := requireOracleEqual(t, "straddle", net, set, st, st, p)
	if cert.OK || cert.Violation.Link != small || cert.WorstSlack >= 0 {
		t.Fatalf("want a violation on the small link and a negative worst slack: %s", cert.Summary())
	}
	requireKept(t, "straddle", net, set, st, st, p)
}

// TestPrunedTiesKeepFirstTouch: the worst slack is attained at once on both
// links of one tunnel, in a two-link case, so first-touch order alone names
// the worst link; the pruned evaluator must name the oracle's.
func TestPrunedTiesKeepFirstTouch(t *testing.T) {
	net := topology.NewNetwork("tie")
	for _, name := range []string{"a", "b", "x", "y", "z"} {
		net.AddSwitch(name, name, 0, 0)
	}
	a, b, x, y, z := topology.SwitchID(0), topology.SwitchID(1), topology.SwitchID(2), topology.SwitchID(3), topology.SwitchID(4)
	net.AddDuplex(a, x, 1)
	net.AddDuplex(x, b, 1)
	for _, hop := range [][2]topology.SwitchID{{a, y}, {y, b}, {a, z}, {z, b}} {
		net.AddDuplex(hop[0], hop[1], 10)
	}
	set := tunnel.NewSet(net)
	f := tunnel.Flow{Src: a, Dst: b}
	set.Add(f, pathOf(net, a, x, b), pathOf(net, a, y, b), pathOf(net, a, z, b))
	st := core.NewState()
	st.Rate[f], st.Alloc[f] = 0.9, []float64{1, 1, 1}

	p := Params{Prot: core.Protection{Ke: 2}, Mode: Exact}
	cert := requireOracleEqual(t, "tie", net, set, st, st, p)
	if cert.WorstLink != "a>x" || len(cert.WorstCase.Links) != 2 {
		t.Fatalf("want the tie won by a>x in a two-link case: %s under %v", cert.Summary(), cert.WorstCase.LinkNames)
	}
	requireKept(t, "tie", net, set, st, st, p)
}

// pathOf is the tunnel along the switches sws.
func pathOf(net *topology.Network, sws ...topology.SwitchID) *tunnel.Tunnel {
	t := &tunnel.Tunnel{Switches: sws}
	for i := 0; i+1 < len(sws); i++ {
		t.Links = append(t.Links, net.FindLink(sws[i], sws[i+1]))
	}
	return t
}

// TestKeptPublished: each exact certification adds what it kept to the
// check.links_kept and check.flows_kept histograms.
func TestKeptPublished(t *testing.T) {
	net, set, steps := daemonPlans(t)
	s := steps[0]
	p := Params{Prot: daemonProt}
	c, err := prepare(net, set, s.st, s.prev, p)
	if err != nil {
		t.Fatal(err)
	}
	res := c.exactData()
	links, flows := obs.Default().Histogram("check.links_kept"), obs.Default().Histogram("check.flows_kept")
	n, sumL, sumF := links.Count(), links.Sum(), flows.Sum()
	if _, err := Certify(net, set, s.st, s.prev, p); err != nil {
		t.Fatal(err)
	}
	if links.Count() != n+1 || links.Sum()-sumL != int64(res.linksKept) || flows.Sum()-sumF != int64(res.flowsKept) {
		t.Fatalf("published %d links, %d flows over %d runs; want %d, %d over one",
			links.Sum()-sumL, flows.Sum()-sumF, links.Count()-n, res.linksKept, res.flowsKept)
	}
}
