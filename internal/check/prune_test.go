package check

// Bound-pruned enumeration (prune, restrict, node bounds): the certificate
// must stay bitwise the oracle's on the plans the daemon certifies, with
// the restriction and the node bounds visibly engaged, and every node's
// load bound must dominate every case the oracle evaluates below it.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/obs"
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
		set := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
		scale, err := core.CalibrateScale(core.NewSolver(net, set, core.Options{}), series, 0.99, 3)
		if err != nil {
			daemonFx.err = err
			return
		}
		series = series.Scale(scale)
		se := core.NewSolver(net, set, core.Options{MiceFraction: 0.01}).NewSession()
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

// TestBranchBoundMatchesOracle: on every plan of the daemon's churn
// sequence the certificate is bitwise the oracle's at any core count, while
// the walk evaluates fewer than half the loaded links and, on the
// redraws, node bounds dismiss more than nine tenths of the cases, the
// single-link subtrees' included. A rate-bumped copy, just violating in a
// two-link case, must stop under FailFast exactly where the serial oracle
// stops.
func TestBranchBoundMatchesOracle(t *testing.T) {
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
		if res := requireKept(t, s.name, net, set, s.st, s.prev, p); strings.HasPrefix(s.name, "redraw") && 10*res.evaluated >= res.cases {
			t.Fatalf("%s: evaluated %d of %d cases: the node bounds did not engage", s.name, res.evaluated, res.cases)
		}

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
				t.Fatalf("%s ×(1+%g): first violation fails %d links, want 2 (a two-link case)", s.name, delta, n)
			}
			requireKept(t, s.name+" bumped", net, set, mut, mut, p)
			requireFailFastFirst(t, net, set, mut, p)
		}
		if !bumped {
			t.Fatalf("%s: no rate bump below ×2 violates", s.name)
		}
	}
}

// exactRun runs the exact search of one certification.
func exactRun(t *testing.T, net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) searchResult {
	t.Helper()
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		t.Fatal(err)
	}
	return c.exactData()
}

// requireKept fails unless the exact search evaluated fewer than half the
// loaded links, and returns its result.
func requireKept(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) searchResult {
	t.Helper()
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		t.Fatal(err)
	}
	res := c.exactData()
	if loaded := loadedLinks(c); 2*res.linksKept >= loaded {
		t.Fatalf("%s: kept %d of %d loaded links: the restriction did not engage", name, res.linksKept, loaded)
	}
	return res
}

// requireBoundsDominate certifies a plan with the oracle against link
// capacities set to the root's node bounds at the plan's (ke, kv): a negative worst
// slack is an evaluated case loading some link beyond its bound. It
// reports false when the plan has no bounds (a tunnel repeats a link).
func requireBoundsDominate(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool {
	t.Helper()
	p.Prot.Kc, p.FailFast = 0, false
	c, err := prepare(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if !c.boundable() {
		return false
	}
	ub := nodeBounds(c.newEvaluator(), nil, p.Prot.Ke)
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

// boundFixtures calls check on the plans the bound tests cover: solver
// plans, and the random states that carry pre-down sets, capacity
// overrides, missing and short allocation vectors and zero weights, and
// beside a wide flow. check reports false when a plan has no bounds.
func boundFixtures(t *testing.T, check func(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool) {
	for _, prot := range []core.Protection{{Ke: 2, Kv: 1}, {Ke: 2}, {Kc: 2, Ke: 1}} {
		fx := lnetPlan(t, prot)
		check(t, "lnet", fx.net, fx.set, fx.st, Params{Prot: prot})
	}
	net, set, steps := daemonPlans(t)
	for _, s := range raceSteps(steps) {
		check(t, s.name, net, set, s.st, Params{Prot: daemonProt, DownLinks: s.down})
	}
	if !raceEnabled {
		net, set, _, st := snetPlan(t)
		check(t, "snet", net, set, st, Params{Prot: snetProt})
	}
	net, set, st, _ := fatTreePlan(t)
	for _, prot := range []core.Protection{{Ke: 1, Kv: 1}, {Ke: 2, Kv: 1}} {
		check(t, "fattree", net, set, st, Params{Prot: prot})
	}
	net, set, st = widePlan(t)
	for _, p := range wideParams {
		check(t, "wide", net, set, st, p)
	}
	for trial := 0; trial < 120; trial++ {
		net, set, st, p := randomTrial(trial)
		if !check(t, fmt.Sprintf("trial %d", trial), net, set, st, p) {
			t.Fatalf("trial %d: no link bounds", trial)
		}
	}
}

// TestEvaluationCountsIgnoreCores: what the exact search keeps and
// evaluates depends on the plan alone, whatever the core count. On the
// ×40 (0,2,1) plan the probe ends at T = 20.2 while S* = 11.70 needs two
// links and a switch together; folding the worst slack so far into the
// threshold as the walk goes keeps the evaluations under 2 % of the cases
// (170 of 25,262; 2,023 without the fold). The ×40 (0,1,1) plan is bounded
// too: the probe and node bounds run at every protection level, so it
// evaluates under half of its 935 cases (all of them with bounds off).
func TestEvaluationCountsIgnoreCores(t *testing.T) {
	type plan struct {
		name     string
		net      *topology.Network
		set      *tunnel.Set
		st, prev *core.State
		p        Params
	}
	net, set, steps := daemonPlans(t)
	var plans []plan
	for _, s := range steps {
		plans = append(plans, plan{s.name, net, set, s.st, s.prev, Params{Prot: daemonProt, DownLinks: s.down}})
	}
	for _, prot := range []core.Protection{{Ke: 2, Kv: 1}, {Ke: 1, Kv: 1}} {
		fx := lnetPlan(t, prot)
		name := fmt.Sprintf("lnet ×40 ke%dkv%d", prot.Ke, prot.Kv)
		plans = append(plans, plan{name, fx.net, fx.set, fx.st, fx.st, Params{Prot: prot}})
	}
	for _, pl := range plans {
		var want searchResult
		atProcs(t, []int{1, 2, 4}, func(t *testing.T, procs int) {
			got := exactRun(t, pl.net, pl.set, pl.st, pl.prev, pl.p)
			if procs == 1 {
				want = got
			}
			if got.evaluated != want.evaluated || got.linksKept != want.linksKept || got.flowsKept != want.flowsKept {
				t.Fatalf("%s procs=%d: evaluated %d, kept %d links and %d flows; at 1 core %d, %d and %d",
					pl.name, procs, got.evaluated, got.linksKept, got.flowsKept, want.evaluated, want.linksKept, want.flowsKept)
			}
		})
		if pl.name == "lnet ×40 ke2kv1" && 50*want.evaluated >= want.cases {
			t.Fatalf("%s: evaluated %d of %d cases: the threshold did not fold", pl.name, want.evaluated, want.cases)
		}
		if pl.name == "lnet ×40 ke1kv1" && 2*want.evaluated >= want.cases {
			t.Fatalf("%s: evaluated %d of %d cases: bounds did not reach ke = 1", pl.name, want.evaluated, want.cases)
		}
	}
}

// TestLinkBoundsDominateCases: no case the oracle evaluates loads a link
// beyond the root's node bound (no link failed yet, ke to go), the bound
// prune keeps links by.
func TestLinkBoundsDominateCases(t *testing.T) {
	boundFixtures(t, requireBoundsDominate)
}

// TestNodeBoundsDominateCases: every case the oracle evaluates loads each
// link at most the bound of every node on its path — each prefix of its
// link set, with the rest of the set still to fail.
func TestNodeBoundsDominateCases(t *testing.T) {
	boundFixtures(t, requireNodeBoundsDominate)
}

// nodeBounds returns the node's bound on every link's load, margin included.
func nodeBounds(e *evaluator, physSel []int, r int) []float64 {
	e.gather(physSel, nil, r)
	ub := make([]float64, len(e.c.cap))
	for _, l := range e.touched {
		ub[l], e.loads[l] = e.loads[l], 0
	}
	e.touched = e.touched[:0]
	for l := range ub {
		ub[l] = bounded(ub[l], e.c.cap[l])
	}
	return ub
}

// requireNodeBoundsDominate walks the node tree of a plan's exact search,
// every first-link subtree of size ≥ 1, and evaluates every case below
// each node with the oracle against capacities set to the node's bounds: a
// negative slack is a case loading some link beyond them. It reports false when the
// plan has no bounds.
func requireNodeBoundsDominate(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool {
	t.Helper()
	p.Prot.Kc, p.FailFast = 0, false
	c, err := prepare(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if !c.boundable() {
		return false
	}
	e, oc := c.newEvaluator(), *c
	oc.cap = make([]float64, len(c.cap))
	o, n := newOracle(&oc), len(c.activeP)
	var pre []int // activeP positions
	// below evaluates every case that fails pre, r more links after
	// position a and ≤ kv switches.
	below := func(a, r int) {
		combos(slices.Clone(pre), a+1, n, r, func(ps []int) bool {
			for _, i := range ps {
				o.downP[c.activeP[i]] = true
			}
			oracleCombosUpTo(len(c.activeS), p.Prot.Kv, func(ss []int) bool {
				for _, i := range ss {
					o.downS[c.activeS[i]] = true
				}
				if cr := o.evalData(o.downP, o.downS); cr.slack < 0 {
					t.Fatalf("%s %+v: links %v switches %v load %s %g beyond the bound of node %v, %d to go",
						name, p.Prot, ps, ss, c.linkName(cr.slackLink), -cr.slack, pre, r)
				}
				for _, i := range ss {
					o.downS[c.activeS[i]] = false
				}
				return true
			})
			for _, i := range ps {
				o.downP[c.activeP[i]] = false
			}
			return true
		})
	}
	var visit func(a, r int)
	visit = func(a, r int) {
		physSel := make([]int, len(pre))
		for j, i := range pre {
			physSel[j] = c.activeP[i]
		}
		copy(oc.cap, nodeBounds(e, physSel, r))
		below(a, r)
		for i := a + 1; i <= n-r && r > 0; i++ {
			pre = append(pre, i)
			visit(i, r-1)
			pre = pre[:len(pre)-1]
		}
	}
	for size := 1; size <= min(p.Prot.Ke, n); size++ {
		for first := 0; first <= n-size; first++ {
			pre = append(pre[:0], first)
			visit(first, size-1)
		}
	}
	return true
}

// TestPruneThresholdNotNegative: the pruning threshold is max(S, 0), never
// a negative worst slack. Here the probe stops at the no-fault case, whose
// slack is −5e-4: g's one tunnel overloads its 1000-unit link inside that
// link's tolerance. A two-link case overloads a 1-unit link by 1e-4, far
// beyond its own, and that link's bound sits 1e-4 above its capacity: a
// threshold of −5e-4 would prune it and certify the plan.
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

	p := Params{Prot: core.Protection{Ke: 2}}
	cert := requireOracleEqual(t, "straddle", net, set, st, st, p)
	if cert.OK || cert.Violation.Link != small || cert.WorstSlack >= 0 {
		t.Fatalf("want a violation on the small link and a negative worst slack: %s", cert.Summary())
	}
	requireKept(t, "straddle", net, set, st, st, p)
}

// TestProbeThresholdCoversWorstSlack: prune's threshold T is never below
// the certificate's worst slack S* nor below 0, the two facts that keep a
// dropped link or a dismissed case from mattering. On the daemon's redraws
// the greedy probe attains S* itself, so T = S* there, with no margin
// to spare.
func TestProbeThresholdCoversWorstSlack(t *testing.T) {
	check := func(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool {
		t.Helper()
		p.Prot.Kc, p.FailFast = 0, false
		c, err := prepare(net, set, st, st, p)
		if err != nil {
			t.Fatal(err)
		}
		_, _, thr := c.prune()
		if thr < 0 {
			return false
		}
		cert, err := Certify(net, set, st, st, p)
		if err != nil {
			t.Fatal(err)
		}
		if thr < cert.WorstSlack {
			t.Fatalf("%s %+v: threshold %g below the worst slack %g", name, p.Prot, thr, cert.WorstSlack)
		}
		if strings.HasPrefix(name, "redraw") && thr != cert.WorstSlack {
			t.Fatalf("%s: threshold %g, want the worst slack %g", name, thr, cert.WorstSlack)
		}
		return true
	}
	boundFixtures(t, check)
}

// TestNodeThresholdNotNegative: a node bound is held to max(min(T, S), 0),
// never to a negative running worst slack S. Flow f overloads the
// 1-unit link a>b by 1e-4 only once its three detours die, which takes two
// links and a switch; g's three tunnels put it 5e-4 over its 1000-unit
// link, inside that link's tolerance, once both detours die. The first
// violation, a-x a-y with switch z, comes under a-x after a-x c-u with
// switch v has driven S to −5e-4, and its node's bound sits 1e-4 above a>b
// and far below g's capacity: held to S it would be dismissed, and the
// first violation would move under a-y.
func TestNodeThresholdNotNegative(t *testing.T) {
	net := topology.NewNetwork("straddle3")
	sw := map[string]topology.SwitchID{}
	for _, name := range []string{"a", "b", "x", "y", "z", "c", "d", "u", "v"} {
		sw[name] = net.AddSwitch(name, name, 0, 0)
	}
	hop := func(a, b string, cp float64) { net.AddDuplex(sw[a], sw[b], cp) }
	hop("a", "b", 1)
	hop("a", "x", 10)
	hop("x", "b", 10)
	hop("c", "u", 1e4)
	hop("u", "d", 1e4)
	hop("c", "v", 1e4)
	hop("v", "d", 1e4)
	hop("c", "d", 1000)
	hop("a", "y", 10)
	hop("y", "b", 10)
	hop("a", "z", 10)
	hop("z", "b", 10)
	path := func(names ...string) *tunnel.Tunnel {
		ids := make([]topology.SwitchID, len(names))
		for i, name := range names {
			ids[i] = sw[name]
		}
		return pathOf(net, ids...)
	}
	set := tunnel.NewSet(net)
	f, g := tunnel.Flow{Src: sw["a"], Dst: sw["b"]}, tunnel.Flow{Src: sw["c"], Dst: sw["d"]}
	set.Add(f, path("a", "b"), path("a", "x", "b"), path("a", "y", "b"), path("a", "z", "b"))
	set.Add(g, path("c", "d"), path("c", "u", "d"), path("c", "v", "d"))
	st := core.NewState()
	st.Rate[f], st.Alloc[f] = 1.0001, []float64{1, 1, 1, 1}
	st.Rate[g], st.Alloc[g] = 1000.0005, []float64{1, 1, 1}

	p := Params{Prot: core.Protection{Ke: 2, Kv: 1}}
	cert := requireOracleEqual(t, "straddle3", net, set, st, st, p)
	if v := cert.Violation; v == nil || v.LinkName != "a>b" || !slices.Equal(v.Faults.LinkNames, []string{"a-x", "a-y"}) {
		t.Fatalf("want the first violation on a>b under a-x a-y z: %s", cert.Summary())
	}
	// The threshold stays ≥ 0 once the worst slack turns negative, so node
	// bounds keep dismissing in the subtrees after it: 300 of the 474 cases
	// are evaluated (450 if a negative threshold switched them off).
	if res := exactRun(t, net, set, st, st, p); res.evaluated != 300 {
		t.Fatalf("evaluated %d of %d cases, want 300", res.evaluated, res.cases)
	}
}

// TestNodeBoundsSkipDroppedLinks: node bounds are taken on the restricted
// index, where a link prune dropped holds no subtree back, and they are
// tight enough to dismiss every first-link subtree g's detours do not feed.
// Bounds never grow down the tree (a failed link removes its avoid-l kill
// weight from lose_l and its across-l weight from W_l and D_l alike), so a
// dropped link, slack > T at the root, would not hold one back on the full
// index either, barring rounding. g's three tunnels leave its direct link k
// at slack 0.1 once both detours fail: the probe fails them in its first
// two steps, so T = 0.1, and k is the only kept link. f's bound on its
// 0.9-unit link l is 0.5 at the root (lose_l = 3: a-b and one detour link,
// both avoiding l) and 0.5 at the node that fails a-b. At (0,2,0) the 12
// active links give 79 cases: the empty set, 12 single links, the 34 pairs
// under g's four detour links, whose nodes leave k at slack 0.1 ≤ T, and
// the last subtree's single pair are evaluated; every other two-link
// subtree is dismissed (failing one of f's links leaves k at most 0.45).
func TestNodeBoundsSkipDroppedLinks(t *testing.T) {
	net := topology.NewNetwork("dropped")
	sw := map[string]topology.SwitchID{}
	for _, name := range []string{"c", "d", "q1", "q2", "a", "b", "p2", "p3", "p4"} {
		sw[name] = net.AddSwitch(name, name, 0, 0)
	}
	net.AddDuplex(sw["c"], sw["d"], 1)
	for _, q := range []string{"q1", "q2"} {
		net.AddDuplex(sw["c"], sw[q], 10)
		net.AddDuplex(sw[q], sw["d"], 10)
	}
	net.AddDuplex(sw["a"], sw["b"], 10)
	for _, q := range []string{"p2", "p3", "p4"} {
		cp := 10.0
		if q == "p2" {
			cp = 0.9
		}
		net.AddDuplex(sw["a"], sw[q], cp)
		net.AddDuplex(sw[q], sw["b"], 10)
	}
	set := tunnel.NewSet(net)
	f, g := tunnel.Flow{Src: sw["a"], Dst: sw["b"]}, tunnel.Flow{Src: sw["c"], Dst: sw["d"]}
	set.Add(g, pathOf(net, sw["c"], sw["d"]), pathOf(net, sw["c"], sw["q1"], sw["d"]), pathOf(net, sw["c"], sw["q2"], sw["d"]))
	set.Add(f, pathOf(net, sw["a"], sw["b"]), pathOf(net, sw["a"], sw["p2"], sw["b"]),
		pathOf(net, sw["a"], sw["p3"], sw["b"]), pathOf(net, sw["a"], sw["p4"], sw["b"]))
	st := core.NewState()
	st.Rate[g], st.Alloc[g] = 0.9, []float64{1, 1, 1}
	st.Rate[f], st.Alloc[f] = 1, []float64{2, 1, 1, 1}

	p := Params{Prot: core.Protection{Ke: 2}}
	requireOracleEqual(t, "dropped", net, set, st, st, p)
	if res := exactRun(t, net, set, st, st, p); res.cases != 79 || res.linksKept != 1 || res.evaluated != 48 {
		t.Fatalf("%d cases, kept %d links, evaluated %d: want 79, 1, 48", res.cases, res.linksKept, res.evaluated)
	}
}

// TestRepeatedLinkBoundsOff: a carrying tunnel that crosses one link twice
// defeats min(1, ·) in the bounds, so the search keeps every link and
// dismisses nothing, and still certifies as the oracle does.
func TestRepeatedLinkBoundsOff(t *testing.T) {
	net := topology.NewNetwork("loop")
	for _, name := range []string{"a", "b", "c", "x"} {
		net.AddSwitch(name, name, 0, 0)
	}
	a, b, c, x := topology.SwitchID(0), topology.SwitchID(1), topology.SwitchID(2), topology.SwitchID(3)
	net.AddDuplex(a, b, 10)
	net.AddDuplex(b, c, 10)
	net.AddDuplex(a, x, 10)
	net.AddDuplex(x, c, 10)
	set := tunnel.NewSet(net)
	f := tunnel.Flow{Src: a, Dst: c}
	set.Add(f, pathOf(net, a, b, c), pathOf(net, a, x, c), pathOf(net, a, b, a, b, c))
	st := core.NewState()
	st.Rate[f], st.Alloc[f] = 3, []float64{1, 1, 1}

	p := Params{Prot: core.Protection{Ke: 2, Kv: 1}}
	requireOracleEqual(t, "loop", net, set, st, st, p)
	if res := exactRun(t, net, set, st, st, p); res.linksKept != len(net.Links) || res.evaluated != res.cases {
		t.Fatalf("kept %d of %d links, evaluated %d of %d cases: want bounds off", res.linksKept, len(net.Links), res.evaluated, res.cases)
	}
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

	p := Params{Prot: core.Protection{Ke: 2}}
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

// TestKeptPublished: each exact certification adds what it kept and how
// many cases it evaluated to the check.links_kept, check.flows_kept and
// check.cases_evaluated histograms.
func TestKeptPublished(t *testing.T) {
	net, set, steps := daemonPlans(t)
	s := steps[0]
	p := Params{Prot: daemonProt}
	res := exactRun(t, net, set, s.st, s.prev, p)
	reg := obs.Default()
	links, flows, evals := reg.Histogram("check.links_kept"), reg.Histogram("check.flows_kept"), reg.Histogram("check.cases_evaluated")
	n, sumL, sumF, sumE := links.Count(), links.Sum(), flows.Sum(), evals.Sum()
	if _, err := Certify(net, set, s.st, s.prev, p); err != nil {
		t.Fatal(err)
	}
	if links.Count() != n+1 || links.Sum()-sumL != int64(res.linksKept) || flows.Sum()-sumF != int64(res.flowsKept) || evals.Sum()-sumE != res.evaluated {
		t.Fatalf("published %d links, %d flows, %d cases over %d runs; want %d, %d, %d over one",
			links.Sum()-sumL, flows.Sum()-sumF, evals.Sum()-sumE, links.Count()-n, res.linksKept, res.flowsKept, res.evaluated)
	}
}
