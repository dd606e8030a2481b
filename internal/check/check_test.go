package check

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// randomNet builds a small random connected duplex network (ring + chords)
// with uniquely named switches, and lays out tunnels for nFlow random flows.
func randomNet(rng *rand.Rand, nSwitch, nFlow int) (*topology.Network, *tunnel.Set, []tunnel.Flow) {
	net := topology.NewNetwork("rand")
	for i := 0; i < nSwitch; i++ {
		net.AddSwitch("s"+string(rune('a'+i)), "site", float64(i), float64(i))
	}
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
	for tries := 0; len(flows) < nFlow && tries < 100; tries++ {
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

// randomState fills rates and full-length allocation vectors with random
// values; overload controls how often rates exceed what links can carry.
func randomState(rng *rand.Rand, set *tunnel.Set, flows []tunnel.Flow, overload float64) *core.State {
	st := core.NewState()
	for _, f := range flows {
		n := len(set.Tunnels(f))
		alloc := make([]float64, n)
		var sum float64
		for i := range alloc {
			alloc[i] = rng.Float64() * 4
			sum += alloc[i]
		}
		st.Alloc[f] = alloc
		st.Rate[f] = sum * (0.5 + overload*rng.Float64())
	}
	return st
}

// consistentRates pins each flow's rate to its allocation sum, the b = Σ a
// relationship every solver-produced plan satisfies.
func consistentRates(st *core.State) *core.State {
	for f, alloc := range st.Alloc {
		var sum float64
		for _, a := range alloc {
			sum += a
		}
		st.Rate[f] = sum
	}
	return st
}

// TestExactMatchesCoreDataPlane is the independence check the package
// exists for: over random networks and random (often violating) states,
// the exact certifier and core.VerifyDataPlane must reach the same verdict
// — two implementations, one guarantee.
func TestExactMatchesCoreDataPlane(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		net, set, flows := randomNet(rng, 4+rng.Intn(4), 2+rng.Intn(4))
		st := randomState(rng, set, flows, float64(trial%3))
		ke, kv := rng.Intn(3), rng.Intn(2)
		var capOver map[topology.LinkID]float64
		if trial%4 == 0 {
			capOver = map[topology.LinkID]float64{net.Links[rng.Intn(len(net.Links))].ID: 1 + rng.Float64()*3}
		}

		coreV := core.VerifyDataPlane(net, set, st, ke, kv, capOver)
		cert, err := Certify(net, set, st, st, Params{
			Prot: core.Protection{Ke: ke, Kv: kv}, Capacity: capOver,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !cert.Exact {
			t.Fatalf("trial %d: Exact=false", trial)
		}
		if (coreV == nil) != (cert.Violation == nil) {
			t.Fatalf("trial %d ke=%d kv=%d: core violation %+v, checker violation %+v (slack %g)",
				trial, ke, kv, coreV, cert.Violation, cert.WorstSlack)
		}
		if coreV != nil {
			if math.Abs(coreV.Over-cert.Violation.Over) > 1e-9*math.Max(1, coreV.Over) {
				t.Fatalf("trial %d: worst over differs: core %g checker %g", trial, coreV.Over, cert.Violation.Over)
			}
			if cert.Violation.Plane != "data" {
				t.Fatalf("trial %d: plane %q", trial, cert.Violation.Plane)
			}
		}
		if cert.OK != (cert.Violation == nil) {
			t.Fatalf("trial %d: OK=%v with violation %+v", trial, cert.OK, cert.Violation)
		}
		if cert.CasesCovered < cert.CasesChecked {
			t.Fatalf("trial %d: covered %d < checked %d", trial, cert.CasesCovered, cert.CasesChecked)
		}
	}
}

// TestControlMatchesOracleControlPlane does the same for the control plane:
// the checker's per-link top-kc selection must agree with controlOracle's
// explicit stale-set enumeration in every rate-limiter mode. Rates are
// pinned to the allocation sums (as in any real plan) because the checker's
// no-fault data case — deliberately — also audits rate-vs-allocation
// consistency, which the allocation-only oracle does not model.
func TestControlMatchesOracleControlPlane(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		net, set, flows := randomNet(rng, 4+rng.Intn(4), 2+rng.Intn(4))
		prev := consistentRates(randomState(rng, set, flows, 0))
		st := consistentRates(randomState(rng, set, flows, float64(trial%3)))
		kc := 1 + rng.Intn(2)
		mode := core.RateLimiterMode(rng.Intn(3))

		want := controlOracle(net, set, st, prev, kc, mode, nil)
		cert, err := Certify(net, set, st, prev, Params{
			Prot: core.Protection{Kc: kc}, RateLimiter: mode,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if (want == nil) != (cert.Violation == nil) {
			t.Fatalf("trial %d kc=%d mode=%d: oracle %+v, checker %+v",
				trial, kc, mode, want, cert.Violation)
		}
		if want != nil {
			if math.Abs(want.Over-cert.Violation.Over) > 1e-9*math.Max(1, want.Over) {
				t.Fatalf("trial %d: worst over differs: oracle %g checker %g", trial, want.Over, cert.Violation.Over)
			}
			// A base-load violation needs no stale switch and surfaces as
			// the (equal) data-plane no-fault case; otherwise the stale set
			// must fit the budget.
			if cert.Violation.Plane == "control" {
				if n := len(cert.Violation.Faults.Stale); n > kc {
					t.Fatalf("trial %d: stale set %v out of budget kc=%d", trial, cert.Violation.Faults.StaleNames, kc)
				}
			} else if !cert.Violation.Faults.Empty() {
				t.Fatalf("trial %d: data-plane violation with faults %+v in a kc-only certification",
					trial, cert.Violation.Faults)
			}
		}
	}
}

// TestViolationFaultSetInduces re-applies a reported violating fault set as
// pre-down faults: certifying the same plan at zero protection must then
// reject without needing any further fault — the fault set genuinely
// induces the overload it reports.
func TestViolationFaultSetInduces(t *testing.T) {
	found := 0
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		net, set, flows := randomNet(rng, 5+rng.Intn(3), 3+rng.Intn(3))
		st := randomState(rng, set, flows, 2)
		cert, err := Certify(net, set, st, st, Params{Prot: core.Protection{Ke: 2, Kv: 1}})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cert.OK {
			continue
		}
		found++
		v := cert.Violation
		dl := map[topology.LinkID]bool{}
		for _, l := range v.Faults.Links {
			dl[l] = true
		}
		ds := map[topology.SwitchID]bool{}
		for _, sw := range v.Faults.Switches {
			ds[sw] = true
		}
		again, err := Certify(net, set, st, st, Params{DownLinks: dl, DownSwitches: ds})
		if err != nil {
			t.Fatalf("trial %d: re-check: %v", trial, err)
		}
		if again.OK {
			t.Fatalf("trial %d: fault set %v/%v does not induce the reported overload",
				trial, v.Faults.LinkNames, v.Faults.SwitchNames)
		}
		if !again.Violation.Faults.Empty() {
			t.Fatalf("trial %d: induced violation still needs faults %+v", trial, again.Violation.Faults)
		}
	}
	if found == 0 {
		t.Fatal("no trial produced a violation; the test exercised nothing")
	}
}

// TestCertifiedSolverPlan: an actual FFC solve must certify at its own
// protection level (the end-to-end positive case).
func TestCertifiedSolverPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, set, flows := randomNet(rng, 7, 5)
	dem := map[tunnel.Flow]float64{}
	for _, f := range flows {
		dem[f] = 2 + rng.Float64()*6
	}
	prot := core.Protection{Kc: 1, Ke: 1, Kv: 1}
	s := core.NewSolver(net, set, core.Options{})
	prev, _, err := s.Solve(core.Input{Demands: dem})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s.Solve(core.Input{Demands: dem, Prot: prot, Prev: prev})
	if err != nil {
		t.Fatal(err)
	}
	cert, err := Certify(net, set, st, prev, Params{Prot: prot})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK || !cert.Exact {
		t.Fatalf("solver plan failed certification: %+v", cert.Violation)
	}
	if cert.WorstSlack < -1e-6 {
		t.Fatalf("worst slack %g negative without a violation", cert.WorstSlack)
	}
	if cert.CasesChecked == 0 || cert.CasesCovered < cert.CasesChecked {
		t.Fatalf("case accounting: checked %d covered %d", cert.CasesChecked, cert.CasesCovered)
	}
}

// TestEmptyPlan: a plan granting nothing is trivially congestion-free and
// the slack falls back to the smallest link capacity.
func TestEmptyPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, set, _ := randomNet(rng, 5, 3)
	cert, err := Certify(net, set, core.NewState(), core.NewState(), Params{
		Prot: core.Protection{Kc: 1, Ke: 2, Kv: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK {
		t.Fatalf("empty plan rejected: %+v", cert.Violation)
	}
	minCap := math.Inf(1)
	for _, l := range net.Links {
		minCap = math.Min(minCap, l.Capacity)
	}
	if cert.WorstSlack != minCap {
		t.Fatalf("empty-plan slack %g, want min capacity %g", cert.WorstSlack, minCap)
	}
}

// TestPreDownSets: a plan solved around existing faults must certify with
// those faults pre-applied, and the protection budget must be spent on
// surviving elements only.
func TestPreDownSets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, set, flows := randomNet(rng, 7, 4)
	dem := map[tunnel.Flow]float64{}
	for _, f := range flows {
		dem[f] = 1 + rng.Float64()*4
	}
	dl := map[topology.LinkID]bool{}
	l := net.Links[0].ID
	dl[l] = true
	if tw := net.Links[l].Twin; tw != topology.None {
		dl[tw] = true
	}
	s := core.NewSolver(net, set, core.Options{})
	st, _, err := s.Solve(core.Input{Demands: dem, Prot: core.Protection{Ke: 1}, DownLinks: dl})
	if err != nil {
		t.Skipf("protected solve infeasible on this seed: %v", err)
	}
	cert, err := Certify(net, set, st, st, Params{
		Prot: core.Protection{Ke: 1}, DownLinks: dl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cert.OK {
		t.Fatalf("plan solved around the down link fails certification: %+v", cert.Violation)
	}
	for _, fl := range cert.WorstCase.Links {
		if dl[fl] {
			t.Fatalf("pre-down link %d spent protection budget", fl)
		}
	}
}

// TestFailFast stops at the first violating case and reports coverage
// honestly (covered == checked on an aborted scan).
func TestFailFast(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		net, set, flows := randomNet(rng, 5, 4)
		st := randomState(rng, set, flows, 2)
		full, err := Certify(net, set, st, st, Params{Prot: core.Protection{Ke: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if full.OK {
			continue
		}
		fast, err := Certify(net, set, st, st, Params{Prot: core.Protection{Ke: 2}, FailFast: true})
		if err != nil {
			t.Fatal(err)
		}
		if fast.OK {
			t.Fatalf("trial %d: fail-fast missed the violation the full scan found", trial)
		}
		if fast.CasesChecked > full.CasesChecked {
			t.Fatalf("trial %d: fail-fast checked more cases (%d) than the full scan (%d)",
				trial, fast.CasesChecked, full.CasesChecked)
		}
		if fast.CasesCovered != fast.CasesChecked {
			t.Fatalf("trial %d: aborted scan claims %d covered for %d checked",
				trial, fast.CasesCovered, fast.CasesChecked)
		}
		return
	}
	t.Fatal("no trial produced a violation")
}

// TestBadInputs: malformed plans error; they never certify and never panic.
func TestBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net, set, flows := randomNet(rng, 5, 3)
	if _, err := Certify(nil, set, core.NewState(), nil, Params{}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := Certify(net, set, nil, nil, Params{}); err == nil {
		t.Fatal("nil state accepted")
	}
	if _, err := Certify(net, set, core.NewState(), nil, Params{Prot: core.Protection{Kc: 1}}); err == nil {
		t.Fatal("kc>0 without prev accepted")
	}
	if _, err := Certify(net, set, core.NewState(), nil, Params{Prot: core.Protection{Ke: -1}}); err == nil {
		t.Fatal("negative protection accepted")
	}
	bad := core.NewState()
	bad.Rate[flows[0]] = math.NaN()
	if _, err := Certify(net, set, bad, nil, Params{}); err == nil {
		t.Fatal("NaN rate accepted")
	}
	bad2 := core.NewState()
	bad2.Alloc[flows[0]] = []float64{1, math.Inf(1)}
	if _, err := Certify(net, set, bad2, nil, Params{}); err == nil {
		t.Fatal("Inf alloc accepted")
	}
}

// TestShortAllocVectors: allocation vectors shorter than the tunnel list
// (a plan file that dropped tunnels) read as zero allocation, not a panic.
func TestShortAllocVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net, set, flows := randomNet(rng, 6, 3)
	st := core.NewState()
	for _, f := range flows {
		st.Rate[f] = 1
		st.Alloc[f] = []float64{2} // shorter than the tunnel list
	}
	cert, err := Certify(net, set, st, st, Params{Prot: core.Protection{Kc: 1, Ke: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_ = cert // any verdict is fine; the point is not panicking
}

// TestExactAtSixteenSites certifies a plan with more than 200,000 active
// fault cases at zero-value Params: the seed-1 16-site L-Net (248 links),
// six (1,3) tunnels for each of demand.Generate's seed-1 flows, every flow
// at rate 0.001 split evenly over its tunnels, at (0,2,1). Every case must
// be resolved, however many there are; no search stands in for the proof.
func TestExactAtSixteenSites(t *testing.T) {
	net := topology.LNet(topology.LNetConfig{Sites: 16}, rand.New(rand.NewSource(1)))
	if len(net.Links) != 248 {
		t.Fatalf("L-Net has %d links, want 248", len(net.Links))
	}
	flows := demand.Generate(net, demand.Config{Intervals: 1}, rand.New(rand.NewSource(1)))[0].Flows()
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	st := core.NewState()
	for _, f := range set.All() {
		n := len(set.Tunnels(f))
		st.Rate[f], st.Alloc[f] = 0.001, make([]float64, n)
		for i := range st.Alloc[f] {
			st.Alloc[f][i] = 0.001 / float64(n)
		}
	}
	p := Params{Prot: core.Protection{Ke: 2, Kv: 1}}
	if c, err := prepare(net, set, st, st, p); err != nil {
		t.Fatal(err)
	} else if n := binomSum(len(c.activeP), 2) * binomSum(len(c.activeS), 1); n <= 200000 {
		t.Fatalf("%g active cases: the fixture must exceed 200,000", n)
	}
	cert, err := Certify(net, set, st, st, p)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Exact || !cert.OK || cert.CasesCovered != 255783 {
		t.Fatalf("want an exact OK over 255,783 cases: %s", cert.Summary())
	}
}
