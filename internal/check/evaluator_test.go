package check

// The memoised, sharded evaluator against the oracle (oracle_test.go),
// bitwise, on every kind of plan the certifier meets; FailFast accounting
// and the certificate's independence from the worker count; and a hammer
// for the race detector.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// lnetFixture is the benchmark's L-Net instance: 8 sites from generator
// seed 1, six (1,3)-disjoint tunnels a flow, a plain-TE plan on the first
// matrix and an FFC plan on the second, demands far past capacity so that
// bottleneck links sit on the boundary.
type lnetFixture struct {
	net      *topology.Network
	set      *tunnel.Set
	prev, st *core.State
}

var (
	lnetMu    sync.Mutex
	lnetPlans = map[core.Protection]*lnetFixture{}
)

func lnetPlan(tb testing.TB, prot core.Protection) *lnetFixture {
	tb.Helper()
	lnetMu.Lock()
	defer lnetMu.Unlock()
	if fx := lnetPlans[prot]; fx != nil {
		return fx
	}
	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	series := demand.Generate(net, demand.Config{Intervals: 2}, rand.New(rand.NewSource(8)))
	set := tunnel.Layout(net, series[0].Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	saturated := demand.Matrix{}
	for f, d := range series[1] {
		saturated[f] = 40 * d
	}
	s := core.NewSolver(net, set, core.Options{Encoding: core.Compact})
	prev, _, err := s.Solve(core.Input{Demands: series[0]})
	if err != nil {
		tb.Fatalf("solving L-Net fixture, plain TE: %v", err)
	}
	st, _, err := s.Solve(core.Input{Demands: saturated, Prot: prot, Prev: prev})
	if err != nil {
		tb.Fatalf("solving L-Net fixture %+v: %v", prot, err)
	}
	lnetPlans[prot] = &lnetFixture{net, set, prev, st}
	return lnetPlans[prot]
}

// atProcs runs fn at each GOMAXPROCS value, restoring the setting.
func atProcs(t *testing.T, procs []int, fn func(t *testing.T, procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range procs {
		runtime.GOMAXPROCS(n)
		fn(t, n)
	}
}

func TestEvaluatorMatchesOracleLNet(t *testing.T) {
	for _, prot := range []core.Protection{{Ke: 2, Kv: 1}, {Ke: 2}, {Kc: 2, Ke: 1}} {
		fx := lnetPlan(t, prot)
		atProcs(t, []int{1, 2, 4}, func(t *testing.T, procs int) {
			name := fmt.Sprintf("lnet %+v procs=%d", prot, procs)
			cert := requireOracleEqual(t, name, fx.net, fx.set, fx.st, fx.prev, Params{Prot: prot})
			if !cert.OK || !cert.Exact {
				t.Fatalf("%s: fixture plan not certified exactly: %s", name, cert.Summary())
			}
		})
	}
	// The adversarial search, seeded, walks the same cases through either
	// evaluator.
	fx := lnetPlan(t, core.Protection{Ke: 2, Kv: 1})
	for _, seed := range []int64{1, 7} {
		cert := requireOracleEqual(t, "lnet adversarial", fx.net, fx.set, fx.st, fx.st,
			Params{Prot: core.Protection{Ke: 2, Kv: 1}, Mode: Adversarial, Seed: seed})
		if cert.Exact || !cert.OK {
			t.Fatalf("adversarial seed %d: %s", seed, cert.Summary())
		}
	}
}

func TestEvaluatorMatchesOracleSNet(t *testing.T) {
	net, set, _, st := snetPlan(t)
	requireOracleEqual(t, "snet exact", net, set, st, st, Params{Prot: snetProt, Mode: Exact})
	requireOracleEqual(t, "snet adversarial", net, set, st, st, Params{Prot: snetProt, Mode: Adversarial, Seed: 3})
}

// fatTreePlan solves a k=4 fat-tree at (0,1,1).
func fatTreePlan(t *testing.T) (*topology.Network, *tunnel.Set, *core.State, core.Protection) {
	t.Helper()
	net := topology.FatTree(4, 25)
	series := demand.Generate(net, demand.Config{Intervals: 1}, rand.New(rand.NewSource(7)))
	set := tunnel.Layout(net, series[0].Flows(), tunnel.LayoutConfig{})
	prot := core.Protection{Ke: 1, Kv: 1}
	st, _, err := core.NewSolver(net, set, core.Options{}).Solve(core.Input{Demands: series[0], Prot: prot})
	if err != nil {
		t.Fatal(err)
	}
	return net, set, st, prot
}

func TestEvaluatorMatchesOracleFatTree(t *testing.T) {
	net, set, st, prot := fatTreePlan(t)
	atProcs(t, []int{1, 3}, func(t *testing.T, procs int) {
		for _, p := range []Params{
			{Prot: prot, Mode: Exact},
			{Prot: core.Protection{Ke: 2, Kv: 1}, Mode: Exact}, // beyond what was solved for: violations
			{Prot: core.Protection{Ke: 2, Kv: 1}, Mode: Exact, FailFast: true},
			{Prot: core.Protection{Ke: 3, Kv: 2}, Mode: Adversarial, Seed: 5, Restarts: 6},
		} {
			requireOracleEqual(t, fmt.Sprintf("fattree %+v procs=%d", p.Prot, procs), net, set, st, st, p)
		}
	})
}

// TestEvaluatorMatchesOracleRandom covers what solver plans never show:
// overloaded states, pre-down links and switches (dead tunnels, flows with
// a dead endpoint), capacity overrides, flows with no allocation vector
// (uniform split) or a short one, zero-weight tunnels, FailFast.
func TestEvaluatorMatchesOracleRandom(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		net, set, st, p := randomTrial(trial)
		requireOracleEqual(t, fmt.Sprintf("trial %d", trial), net, set, st, st, p)
	}
}

// randomTrial draws trial's plan and certification parameters for
// TestEvaluatorMatchesOracleRandom.
func randomTrial(trial int) (*topology.Network, *tunnel.Set, *core.State, Params) {
	rng := rand.New(rand.NewSource(int64(6000 + trial)))
	net, set, flows := randomNet(rng, 5+rng.Intn(5), 3+rng.Intn(6))
	st := randomState(rng, set, flows, float64(trial%3))
	for i, f := range flows {
		switch (trial + i) % 5 {
		case 0:
			delete(st.Alloc, f) // ingress splits uniformly
		case 1:
			st.Alloc[f] = st.Alloc[f][:1]
		case 2:
			st.Alloc[f][rng.Intn(len(st.Alloc[f]))] = 0
		}
	}
	p := Params{
		Prot:     core.Protection{Ke: rng.Intn(3), Kv: rng.Intn(3)},
		Mode:     Mode(trial % 3),
		FailFast: trial%4 == 3,
		Restarts: 6,
		Seed:     int64(trial + 1),
	}
	if trial%2 == 0 {
		l := net.Links[rng.Intn(len(net.Links))].ID
		p.DownLinks = map[topology.LinkID]bool{l: true}
		p.Capacity = map[topology.LinkID]float64{net.Links[rng.Intn(len(net.Links))].ID: 0.5 + rng.Float64()*3}
	}
	if trial%3 == 0 {
		p.DownSwitches = map[topology.SwitchID]bool{topology.SwitchID(rng.Intn(len(net.Switches))): true}
	}
	return net, set, st, p
}

// TestEvaluatorWideFlow: a flow with more tunnels than a dead-mask has bits
// is evaluated directly, beside memoised flows, to the same numbers.
func TestEvaluatorWideFlow(t *testing.T) {
	net, set, st := widePlan(t)
	c, err := prepare(net, set, st, st, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if c.flows[0].slot >= 0 || c.flows[1].slot < 0 {
		t.Fatalf("memo slots %d, %d: want the wide flow direct and the narrow one memoised", c.flows[0].slot, c.flows[1].slot)
	}
	for _, p := range wideParams {
		requireOracleEqual(t, fmt.Sprintf("wide %+v", p.Prot), net, set, st, st, p)
	}
}

// wideParams are the certifications TestEvaluatorWideFlow runs on widePlan.
var wideParams = []Params{
	{Prot: core.Protection{Ke: 2, Kv: 1}, Mode: Exact},
	{Prot: core.Protection{Ke: 1, Kv: 2}, Mode: Exact, DownSwitches: map[topology.SwitchID]bool{3: true}},
	{Prot: core.Protection{Ke: 3, Kv: 1}, Mode: Adversarial, Seed: 2, Restarts: 6},
}

// widePlan is a dense 7-switch mesh with one flow of more than 64 tunnels
// (listed first) beside two narrow ones, under a random state.
func widePlan(t *testing.T) (*topology.Network, *tunnel.Set, *core.State) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	net := topology.NewNetwork("dense")
	const n = 7
	for i := 0; i < n; i++ {
		net.AddSwitch(fmt.Sprintf("d%d", i), "site", float64(i), 0)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			net.AddDuplex(topology.SwitchID(a), topology.SwitchID(b), 4+rng.Float64()*4)
		}
	}
	wide := tunnel.Flow{Src: 0, Dst: n - 1}
	narrow := []tunnel.Flow{{Src: 1, Dst: 5}, {Src: 6, Dst: 2}}
	set := tunnel.LayoutKShortest(net, []tunnel.Flow{wide}, 70, nil)
	if got := len(set.Tunnels(wide)); got <= 64 {
		t.Fatalf("wide flow has %d tunnels, want more than 64", got)
	}
	for _, f := range narrow {
		set.Add(f, tunnel.Layout(net, []tunnel.Flow{f}, tunnel.LayoutConfig{}).Tunnels(f)...)
	}
	return net, set, randomState(rng, set, append([]tunnel.Flow{wide}, narrow...), 1)
}

// requireFailFastFirst certifies a plan known to violate p with FailFast at
// GOMAXPROCS 1, 2 and 4: whatever the worker count, the run must stop where
// the serial oracle stops — the reported violation is the first violating
// case in enumeration order and CasesChecked = CasesCovered = that case's
// enumeration index + 1.
func requireFailFastFirst(t *testing.T, net *topology.Network, set *tunnel.Set, st *core.State, p Params) {
	t.Helper()
	p.FailFast = true
	want, err := oracleCertify(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if want.OK || want.CasesChecked != want.CasesCovered {
		t.Fatalf("oracle fail-fast run: OK=%v, checked %d, covered %d", want.OK, want.CasesChecked, want.CasesCovered)
	}
	atProcs(t, []int{1, 2, 4}, func(t *testing.T, procs int) {
		for rep := 0; rep < 3; rep++ {
			got, err := Certify(net, set, st, st, p)
			if err != nil {
				t.Fatal(err)
			}
			if !certsEqual(got, want) {
				t.Fatalf("procs=%d: fail-fast certificate differs from the serial oracle's\ngot:  %d cases, %s\nwant: %d cases, %s",
					procs, got.CasesChecked, got.Summary(), want.CasesChecked, want.Summary())
			}
		}
	})
}

// TestControlPlaneDeterministic: per-link stale contributions are summed in
// ascending source order, so a kc > 0 certificate is the same every time
// (it used to follow Go's map order in the last ulps of WorstSlack).
func TestControlPlaneDeterministic(t *testing.T) {
	prot := core.Protection{Kc: 2, Ke: 1}
	fx := lnetPlan(t, prot)
	p := Params{Prot: prot, RateLimiter: core.LimitersIndependent}
	first, err := Certify(fx.net, fx.set, fx.st, fx.prev, p)
	if err != nil {
		t.Fatal(err)
	}
	if first.WorstCase.Stale == nil && first.CasesChecked == 0 {
		t.Fatalf("control plane not exercised: %s", first.Summary())
	}
	for i := 1; i < 50; i++ {
		again, err := Certify(fx.net, fx.set, fx.st, fx.prev, p)
		if err != nil {
			t.Fatal(err)
		}
		if !certsEqual(first, again) {
			t.Fatalf("run %d differs:\n%+v\n%+v", i, *first, *again)
		}
	}
}

// TestConcurrentCertifyHammer certifies the same plans from several
// goroutines at several GOMAXPROCS values; run under -race it checks that
// evaluators share nothing but the read-only index.
func TestConcurrentCertifyHammer(t *testing.T) {
	prot := core.Protection{Ke: 2, Kv: 1}
	fx := lnetPlan(t, prot)
	rounds := 3
	if raceEnabled || testing.Short() {
		rounds = 1
	}
	want, err := Certify(fx.net, fx.set, fx.st, fx.st, Params{Prot: prot})
	if err != nil {
		t.Fatal(err)
	}
	atProcs(t, []int{1, 2, 4, 8}, func(t *testing.T, procs int) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					p := Params{Prot: prot, FailFast: g%2 == 1}
					if g == 3 {
						p.Mode = Adversarial
					}
					got, err := Certify(fx.net, fx.set, fx.st, fx.st, p)
					if err != nil {
						t.Error(err)
						return
					}
					if g < 3 && !certsEqual(got, want) {
						t.Errorf("procs=%d goroutine %d: certificate differs:\n%+v\n%+v", procs, g, *got, *want)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}
