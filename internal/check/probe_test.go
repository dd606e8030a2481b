package check

// Params.Probe changes how fast a certification runs, never its verdict:
// every probe, in the certified space or not, must leave the certificate
// bitwise the unprobed one's.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// namedProbe is one probe a certification is repeated with.
type namedProbe struct {
	name string
	fs   *FaultSet
}

// probeCases returns the probes a plan certified at p as want is repeated
// with: its true worst case, the empty case, a random in-space case, the
// same case under twin link IDs with repeats, that case plus every
// element already down, an element the network lacks, and out-of-space
// cases of ke+1 links or kv+1 switches. pick(n) draws from [0, n).
func probeCases(c *checker, want *Certificate, pick func(n int) int) []namedProbe {
	ke, kv := c.p.Prot.Ke, c.p.Prot.Kv
	// draw returns k distinct candidate indexes of n (all of them if fewer).
	draw := func(n, k int) []int {
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for i := 0; i < min(k, n); i++ {
			j := i + pick(n-i)
			perm[i], perm[j] = perm[j], perm[i]
		}
		return perm[:min(k, n)]
	}
	links := func(idx []int) []topology.LinkID {
		out := []topology.LinkID{}
		for _, pi := range idx {
			out = append(out, c.phys[pi])
		}
		return out
	}
	switches := func(idx []int) []topology.SwitchID {
		out := []topology.SwitchID{}
		for _, si := range idx {
			out = append(out, c.sws[si])
		}
		return out
	}
	random := FaultSet{
		Links:    links(draw(len(c.phys), pick(ke+1))),
		Switches: switches(draw(len(c.sws), pick(kv+1))),
	}
	twins := FaultSet{Switches: append(random.Switches, random.Switches...)}
	for _, l := range random.Links {
		if tw := c.net.Links[l].Twin; tw != topology.None {
			l = tw
		}
		twins.Links = append(twins.Links, l, l)
	}
	down := FaultSet{Links: append([]topology.LinkID{}, random.Links...), Switches: append([]topology.SwitchID{}, random.Switches...)}
	for l, on := range c.p.DownLinks {
		if on {
			down.Links = append(down.Links, l)
		}
	}
	for v, on := range c.p.DownSwitches {
		if on {
			down.Switches = append(down.Switches, v)
		}
	}
	probes := []namedProbe{
		{"worst case", &want.WorstCase},
		{"empty", &FaultSet{}},
		{"random", &random},
		{"twins and repeats", &twins},
		{"with down elements", &down},
		{"foreign link", &FaultSet{Links: []topology.LinkID{topology.LinkID(len(c.net.Links) + 3)}}},
	}
	if len(c.phys) > ke {
		probes = append(probes, namedProbe{"ke+1 links", &FaultSet{Links: links(draw(len(c.phys), ke+1))}})
	}
	if len(c.sws) > kv {
		probes = append(probes, namedProbe{"kv+1 switches", &FaultSet{Switches: switches(draw(len(c.sws), kv+1))}})
	}
	return probes
}

// requireProbeInvariant certifies a plan with no probe and then with each
// of probeCases' probes, and fails unless every certificate is bitwise the
// unprobed one: WorstSlack's bits, WorstLink, WorstCase, Violation,
// CasesChecked and CasesCovered.
func requireProbeInvariant(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params, pick func(n int) int) {
	t.Helper()
	p.Probe = nil
	want, err := Certify(net, set, st, prev, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range probeCases(c, want, pick) {
		p.Probe = pr.fs
		got, err := Certify(net, set, st, prev, p)
		if err != nil {
			t.Fatalf("%s, probe %s: %v", name, pr.name, err)
		}
		if !certsEqual(got, want) || math.Float64bits(got.WorstSlack) != math.Float64bits(want.WorstSlack) {
			t.Fatalf("%s %+v, probe %s %v %v: certificate differs from the unprobed one\nprobed:   %s\n          %+v\nunprobed: %s\n          %+v",
				name, p.Prot, pr.name, pr.fs.Links, pr.fs.Switches, got.Summary(), *got, want.Summary(), *want)
		}
	}
}

// TestProbeNeverChangesCertificate: on the daemon's churn sequence, the
// L-Net, S-Net and fat-tree plans, the wide-flow mesh and the random
// trials, no probe — in the certified space, naming down elements, empty,
// foreign or out of it — moves a certificate by a bit.
func TestProbeNeverChangesCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	boundFixtures(t, func(t *testing.T, name string, net *topology.Network, set *tunnel.Set, st *core.State, p Params) bool {
		requireProbeInvariant(t, name, net, set, st, st, p, rng.Intn)
		return true
	})
	net, set, steps := daemonPlans(t)
	for _, s := range raceSteps(steps) {
		requireProbeInvariant(t, s.name+" after its predecessor", net, set, s.st, s.prev, Params{Prot: daemonProt, DownLinks: s.down}, rng.Intn)
	}
}

// TestOutOfSpaceProbeIgnored: f splits 1.2 units over a 1-unit direct link
// a-b and two 10-unit detours. One failed detour leaves a>b slack
// S* = 0.4; the worst case in reach of the probes below, which exceed the
// protection by one element, leaves it −0.2 or, at (0,0,0), 0.4 < S* = 0.6.
// Honoured, such a probe sets T below S*: prune drops a>b, whose root bound
// has slack S* > T, and the certificate loses its worst case.
func TestOutOfSpaceProbeIgnored(t *testing.T) {
	net := topology.NewNetwork("detours")
	sw := map[string]topology.SwitchID{}
	for _, name := range []string{"a", "b", "x", "y"} {
		sw[name] = net.AddSwitch(name, name, 0, 0)
	}
	direct := net.AddDuplex(sw["a"], sw["b"], 1)
	ax := net.AddDuplex(sw["a"], sw["x"], 10)
	net.AddDuplex(sw["x"], sw["b"], 10)
	ay := net.AddDuplex(sw["a"], sw["y"], 10)
	net.AddDuplex(sw["y"], sw["b"], 10)
	set := tunnel.NewSet(net)
	f := tunnel.Flow{Src: sw["a"], Dst: sw["b"]}
	set.Add(f, pathOf(net, sw["a"], sw["b"]), pathOf(net, sw["a"], sw["x"], sw["b"]), pathOf(net, sw["a"], sw["y"], sw["b"]))
	st := core.NewState()
	st.Rate[f], st.Alloc[f] = 1.2, []float64{1, 1, 1}

	for _, tc := range []struct {
		prot  core.Protection
		probe FaultSet
	}{
		{core.Protection{Ke: 1}, FaultSet{Links: []topology.LinkID{ax, ay}}},
		{core.Protection{Ke: 1}, FaultSet{Links: []topology.LinkID{ay}, Switches: []topology.SwitchID{sw["x"]}}},
		{core.Protection{}, FaultSet{Switches: []topology.SwitchID{sw["x"]}}},
	} {
		name := fmt.Sprintf("%+v probe %v %v", tc.prot, tc.probe.Links, tc.probe.Switches)
		p := Params{Prot: tc.prot}
		want := requireOracleEqual(t, name, net, set, st, st, p)
		if !want.OK || want.WorstLink != "a>b" {
			t.Fatalf("%s: want a>b binding: %s", name, want.Summary())
		}
		c, err := prepare(net, set, st, st, p)
		if err != nil {
			t.Fatal(err)
		}
		var physSel, swSel []int
		for _, l := range tc.probe.Links {
			physSel = append(physSel, c.physOf[l])
		}
		for _, v := range tc.probe.Switches {
			swSel = append(swSel, c.swOf[v])
		}
		e := c.newEvaluator()
		if cr := e.eval(physSel, swSel); cr.slackLink != direct || cr.slack >= want.WorstSlack {
			t.Fatalf("%s: the probe leaves slack %g on link %d, want below S* = %g on a>b", name, cr.slack, cr.slackLink, want.WorstSlack)
		}
		e.release()
		p.Probe = &tc.probe
		got, err := Certify(net, set, st, st, p)
		if err != nil {
			t.Fatal(err)
		}
		if !certsEqual(got, want) {
			t.Fatalf("%s: certificate moved\nprobed:   %s\nunprobed: %s", name, got.Summary(), want.Summary())
		}
	}
}

// TestProbeFrom: a certificate seeds the next certification's probe only at
// the same ke and kv over the same down sets, and never with a stale set.
func TestProbeFrom(t *testing.T) {
	down := map[topology.LinkID]bool{3: true, 4: true}
	prior := &Certificate{Ke: 2, Kv: 1, WorstCase: FaultSet{Links: []topology.LinkID{7}}}
	at := func(prot core.Protection, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) Params {
		return Params{Prot: prot, DownLinks: dl, DownSwitches: ds}
	}
	prot := core.Protection{Kc: 1, Ke: 2, Kv: 1}
	for _, tc := range []struct {
		name  string
		prior *Certificate
		p     Params
		want  bool
	}{
		{"same level and down sets", prior, at(prot, map[topology.LinkID]bool{4: true, 3: true, 9: false}, nil), true},
		{"no prior", nil, at(prot, down, nil), false},
		{"other ke", prior, at(core.Protection{Ke: 1, Kv: 1}, down, nil), false},
		{"other kv", prior, at(core.Protection{Ke: 2}, down, nil), false},
		{"a link came up", prior, at(prot, map[topology.LinkID]bool{3: true}, nil), false},
		{"a link went down", prior, at(prot, map[topology.LinkID]bool{3: true, 4: true, 5: true}, nil), false},
		{"a switch went down", prior, at(prot, down, map[topology.SwitchID]bool{1: true}), false},
		{"a stale worst case", &Certificate{Ke: 2, Kv: 1, WorstCase: FaultSet{Stale: []topology.SwitchID{2}}}, at(prot, down, nil), false},
	} {
		got := ProbeFrom(tc.prior, down, nil, tc.p)
		if (got != nil) != tc.want || (got != nil && got != &tc.prior.WorstCase) {
			t.Errorf("%s: probe %v, want one: %v", tc.name, got, tc.want)
		}
	}
}
