package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/tunnel"
)

// lpDigest pins one formulation: the SHA-256 of its WriteLP text, its size
// and the encoding's share of it.
type lpDigest struct {
	sha              string
	vars, rows       int
	encVars, encCons int
}

func (d lpDigest) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d}", d.sha, d.vars, d.rows, d.encVars, d.encCons)
}

// wantLPDigests holds the pinned formulations of TestEncodingLPDigests,
// keyed site/encoding/objective/limiter mode (the Objective and
// RateLimiterMode values). A change that moves the LP on purpose — exact
// reductions in the formulation, canonical sticky plans — re-pins the
// entries it changes and says why beside them.
var wantLPDigests = map[string]lpDigest{
	"cp-rand/compact/obj0/lim0":     {"8d22f4cff1ba9781", 53, 60, 32, 39},
	"cp-rand/compact/obj1/lim0":     {"772f9e54e07c3987", 55, 60, 32, 39},
	"cp-rand/compact/obj2/lim0":     {"93e17971c38f03e7", 68, 60, 32, 39},
	"cp-rand/naive/obj0/lim0":       {"302c915bf63b7fe6", 28, 49, 7, 28},
	"cp-rand/naive/obj1/lim0":       {"e9540b81384e9388", 30, 49, 7, 28},
	"cp-rand/naive/obj2/lim0":       {"25e60c361fefeb7c", 43, 49, 7, 28},
	"cp-rand/sortnet/obj0/lim0":     {"d1ba6dde0d310341", 42, 63, 21, 42},
	"cp-rand/sortnet/obj1/lim0":     {"f82689e5b8d9aba1", 44, 63, 21, 42},
	"cp-rand/sortnet/obj2/lim0":     {"1f2f85b137e30cee", 57, 63, 21, 42},
	"cp/compact/obj0/lim0":          {"52752213154df1c4", 29, 33, 21, 25},
	"cp/compact/obj0/lim1":          {"3b7cc38877c7ce5e", 29, 33, 21, 25},
	"cp/compact/obj0/lim2":          {"85260d0accf93914", 29, 39, 21, 27},
	"cp/compact/obj1/lim0":          {"2afba6a00bc68b59", 31, 33, 21, 25},
	"cp/compact/obj1/lim1":          {"3964665d476ae885", 31, 33, 21, 25},
	"cp/compact/obj1/lim2":          {"4bd0942229eef641", 31, 39, 21, 27},
	"cp/compact/obj2/lim0":          {"8bbec0c3941eea1a", 34, 33, 21, 25},
	"cp/compact/obj2/lim1":          {"d208f65385a1c73b", 34, 33, 21, 25},
	"cp/compact/obj2/lim2":          {"5c770788f3d17c64", 34, 39, 21, 27},
	"cp/naive/obj0/lim0":            {"35aade620b6fb5dd", 12, 27, 4, 19},
	"cp/naive/obj0/lim1":            {"3e4524d44de6fb3f", 12, 27, 4, 19},
	"cp/naive/obj0/lim2":            {"6742bcca2be3d45e", 12, 33, 4, 21},
	"cp/naive/obj1/lim0":            {"3273158de40d8fb2", 14, 27, 4, 19},
	"cp/naive/obj1/lim1":            {"d15fc4963800cf71", 14, 27, 4, 19},
	"cp/naive/obj1/lim2":            {"7ca0885f923c9b39", 14, 33, 4, 21},
	"cp/naive/obj2/lim0":            {"ce02501649a35bfe", 17, 27, 4, 19},
	"cp/naive/obj2/lim1":            {"2555ab9358ec9347", 17, 27, 4, 19},
	"cp/naive/obj2/lim2":            {"ff9e52dd4d67477b", 17, 33, 4, 21},
	"cp/sortnet/obj0/lim0":          {"01ff419b5c67cef2", 23, 37, 15, 29},
	"cp/sortnet/obj0/lim1":          {"1f77a1e1023dff45", 23, 37, 15, 29},
	"cp/sortnet/obj0/lim2":          {"85aec07137d04b3a", 23, 43, 15, 31},
	"cp/sortnet/obj1/lim0":          {"843b7371266048ee", 25, 37, 15, 29},
	"cp/sortnet/obj1/lim1":          {"2780595b7f251e86", 25, 37, 15, 29},
	"cp/sortnet/obj1/lim2":          {"a17bfacf3418e365", 25, 43, 15, 31},
	"cp/sortnet/obj2/lim0":          {"f7ff6c5e78eedbf0", 28, 37, 15, 29},
	"cp/sortnet/obj2/lim1":          {"8ad970a3074c340c", 28, 37, 15, 29},
	"cp/sortnet/obj2/lim2":          {"e376ba05e1d75da8", 28, 43, 15, 31},
	"dp-largest/compact/obj0/lim0":  {"d38616a5e83a37cd", 42, 42, 21, 21},
	"dp-largest/compact/obj1/lim0":  {"f48b2fc4be24bda4", 43, 42, 21, 21},
	"dp-largest/compact/obj2/lim0":  {"8f09d38666027d9e", 57, 42, 21, 21},
	"dp-largest/naive/obj0/lim0":    {"57d149c7b93df00d", 21, 52, 0, 31},
	"dp-largest/naive/obj1/lim0":    {"493f2a5cf3ff24d2", 22, 52, 0, 31},
	"dp-largest/naive/obj2/lim0":    {"7f51362e4cb9f231", 36, 52, 0, 31},
	"dp-largest/sortnet/obj0/lim0":  {"da9c9b9536d38db9", 39, 54, 18, 33},
	"dp-largest/sortnet/obj1/lim0":  {"ba439794b7fbf805", 40, 54, 18, 33},
	"dp-largest/sortnet/obj2/lim0":  {"41b04c575961a9a1", 54, 54, 18, 33},
	"dp-smallest/compact/obj0/lim0": {"5f015caaf4e2b16b", 14, 14, 6, 6},
	"dp-smallest/compact/obj1/lim0": {"926c09512e999af0", 15, 14, 6, 6},
	"dp-smallest/compact/obj2/lim0": {"a3fdb8cb39ebdb05", 19, 14, 6, 6},
	"dp-smallest/naive/obj0/lim0":   {"aa3007896bd0f635", 8, 14, 0, 6},
	"dp-smallest/naive/obj1/lim0":   {"6a702741a6ed7226", 9, 14, 0, 6},
	"dp-smallest/naive/obj2/lim0":   {"f25e7ee540ddbfc7", 13, 14, 0, 6},
	"dp-smallest/sortnet/obj0/lim0": {"aba8589783c6df19", 12, 16, 4, 8},
	"dp-smallest/sortnet/obj1/lim0": {"a92de0a5743bea13", 13, 16, 4, 8},
	"dp-smallest/sortnet/obj2/lim0": {"ed04f629aaf442ca", 17, 16, 4, 8},
	"dp-switch/compact/obj0/lim0":   {"85b092385da6af60", 33, 33, 12, 12},
	"dp-switch/compact/obj1/lim0":   {"4d697c190b6b001a", 34, 33, 12, 12},
	"dp-switch/compact/obj2/lim0":   {"6756e24706b99cfb", 48, 33, 12, 12},
	"dp-switch/naive/obj0/lim0":     {"3afcf85439b04bc3", 21, 77, 0, 56},
	"dp-switch/naive/obj1/lim0":     {"40fd56cf3cf515ec", 22, 77, 0, 56},
	"dp-switch/naive/obj2/lim0":     {"dcb6c7f55330c298", 36, 77, 0, 56},
	"dp-switch/sortnet/obj0/lim0":   {"abc480a9fdbca4f1", 33, 42, 12, 21},
	"dp-switch/sortnet/obj1/lim0":   {"6828f634b3f1f1e6", 34, 42, 12, 21},
	"dp-switch/sortnet/obj2/lim0":   {"feca30738403c0a2", 48, 42, 12, 21},
	"du-rand/compact/obj1/lim0":     {"1a0092eaab84d35e", 69, 67, 46, 46},
	// Naive emits demand uncertainty's bound as explicit subsets; before
	// the encodings shared one emitter it fell back to the bubble network
	// here (then {"e8f63ca13985b183", 75, 108, 52, 87}).
	"du-rand/naive/obj1/lim0":   {"0a45fff17d3b7278", 23, 45, 0, 24},
	"du-rand/sortnet/obj1/lim0": {"e8f63ca13985b183", 75, 108, 52, 87},
	"du/compact/obj1/lim0":      {"add2f7d367702959", 19, 18, 11, 11},
	// As du-rand/naive (was {"6371fda33ce9d40f", 14, 19, 6, 12}).
	"du/naive/obj1/lim0":   {"e56c66dad2720d1f", 8, 13, 0, 6},
	"du/sortnet/obj1/lim0": {"6371fda33ce9d40f", 14, 19, 6, 12},
}

// wantUpdateDigests pins the PlanUpdate step plans of
// TestEncodingLPDigests, as a SHA-256 over every step's rates and
// allocations in Float64bits.
var wantUpdateDigests = map[string]string{
	"fig/compact/kc1":  "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/compact/kc2":  "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"fig/naive/kc1":    "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/naive/kc2":    "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"fig/sortnet/kc1":  "2 steps, 1 LPs, 9265a6208c7b345d",
	"fig/sortnet/kc2":  "1 steps, 0 LPs, 7fccbc8117ad97b6",
	"rand/compact/kc1": "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
	"rand/naive/kc1":   "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
	"rand/sortnet/kc1": "2 steps, 3 LPs, a2f4f1e7c1fd53b0",
}

// TestEncodingLPDigests pins the LP that every bounded-M-sum site emits
// under each encoding: the data plane's smallest-τ and
// largest-(|T|−τ) forms, the control plane (per rate-limiter mode) and
// demand uncertainty (MinMLU only, the one objective it accepts), each
// under MaxThroughput, MinMLU and PlanCapacity where the site allows it. It
// also pins the multi-step update plans, whose per-step LPs carry the
// fourth M-sum site.
func TestEncodingLPDigests(t *testing.T) {
	fx := newFig25(t)
	figPrev := NewState()
	figPrev.Rate[fx.f24], figPrev.Alloc[fx.f24] = 10, []float64{7, 3}
	figPrev.Rate[fx.f34], figPrev.Alloc[fx.f34] = 10, []float64{7, 3}
	figDem := demand.Matrix{fx.f24: 10, fx.f34: 10, fx.f14: 10}

	rnet, rtun, rflows := randomNetwork(rand.New(rand.NewSource(7)), 7, 6)
	rdem := demand.Matrix{}
	for i, f := range rflows {
		rdem[f] = 1 + float64(i)
	}
	rprev, _, err := NewSolver(rnet, rtun, Options{}).Solve(Input{Demands: rdem})
	if err != nil {
		t.Fatal(err)
	}

	type site struct {
		name  string
		fig   bool
		in    Input
		objs  []Objective
		modes []RateLimiterMode
	}
	all := []Objective{MaxThroughput, MinMLU, PlanCapacity}
	synced := []RateLimiterMode{LimitersSynced}
	sites := []site{
		{"dp-smallest", true, Input{Demands: figDem, Prot: Protection{Ke: 1}}, all, synced},
		{"dp-largest", false, Input{Demands: rdem, Prot: Protection{Ke: 1}}, all, synced},
		{"dp-switch", false, Input{Demands: rdem, Prot: Protection{Ke: 1, Kv: 1}}, all, synced},
		{"cp", true, Input{Demands: figDem, Prot: Protection{Kc: 2, Ke: 1}, Prev: figPrev}, all,
			[]RateLimiterMode{LimitersSynced, LimitersOrdered, LimitersIndependent}},
		{"cp-rand", false, Input{Demands: rdem, Prot: Protection{Kc: 1}, Prev: rprev}, all, synced},
		{"du", true, Input{Demands: demand.Matrix{fx.f24: 8, fx.f34: 8},
			Demand: DemandUncertainty{Count: 1, Factor: 1.5}}, []Objective{MinMLU}, synced},
		{"du-rand", false, Input{Demands: rdem, Demand: DemandUncertainty{Count: 2, Factor: 2}},
			[]Objective{MinMLU}, synced},
	}
	// dp-largest must reach the form it is named for (dp-smallest's
	// Fig 2–5 flows have τ = 1 of 2 tunnels).
	largest := false
	for _, f := range rflows {
		n, tau := len(rtun.Tunnels(f)), NewSolver(rnet, rtun, Options{}).tauOf(f, sites[1].in.Prot)
		largest = largest || (tau > 0 && tau > n-tau)
	}
	if !largest {
		t.Fatal("dp-largest reaches no largest-(|T|−τ) form")
	}

	got := map[string]lpDigest{}
	for _, st := range sites {
		for _, enc := range []Encoding{Compact, SortNet, Naive} {
			for _, obj := range st.objs {
				for _, mode := range st.modes {
					net, tun := rnet, rtun
					if st.fig {
						net, tun = fx.net, fx.tun
					}
					s := NewSolver(net, tun, Options{Encoding: enc, Objective: obj, RateLimiter: mode})
					b := scratchBuilder(t, s, st.in)
					sum := sha256.Sum256(modelBytes(t, b.model))
					key := fmt.Sprintf("%s/%v/obj%d/lim%d", st.name, enc, obj, mode)
					got[key] = lpDigest{fmt.Sprintf("%x", sum[:8]), b.model.NumVars(), b.model.NumRows(), b.encVars, b.encCons}
				}
			}
		}
	}

	// PlanUpdate: the Fig 3 transition at kc = 1 and 2 towards the
	// FFC-TE target, and a random kc = 1 chain.
	gotUpd := map[string]string{}
	updPrev := figPrev.Clone()
	updPrev.Rate[fx.f14], updPrev.Alloc[fx.f14] = 0, []float64{0}
	rdem2 := demand.Matrix{}
	for i, f := range rflows {
		rdem2[f] = 4 * float64(len(rflows)-i)
	}
	for _, enc := range []Encoding{Compact, SortNet, Naive} {
		s := NewSolver(fx.net, fx.tun, Options{Encoding: enc})
		for _, kc := range []int{1, 2} {
			target, _, err := s.Solve(Input{Demands: figDem, Prot: Protection{Kc: kc}, Prev: updPrev})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := s.PlanUpdate(updPrev, target, kc, 8)
			if err != nil {
				t.Fatalf("%v kc=%d: %v", enc, kc, err)
			}
			gotUpd[fmt.Sprintf("fig/%v/kc%d", enc, kc)] = planDigest(plan)
		}
		rs := NewSolver(rnet, rtun, Options{Encoding: enc})
		target, _, err := rs.Solve(Input{Demands: rdem2})
		if err != nil {
			t.Fatal(err)
		}
		// This chain stalls after its third LP; the steps it took are
		// pinned all the same.
		plan, _ := rs.PlanUpdate(rprev, target, 1, 6)
		gotUpd[fmt.Sprintf("rand/%v/kc1", enc)] = planDigest(plan)
	}

	var diff []string
	for _, k := range sortedKeys(got) {
		if want, ok := wantLPDigests[k]; !ok || want != got[k] {
			diff = append(diff, fmt.Sprintf("\t%q: %v,", k, got[k]))
		}
	}
	for _, k := range sortedKeys(gotUpd) {
		if want, ok := wantUpdateDigests[k]; !ok || want != gotUpd[k] {
			diff = append(diff, fmt.Sprintf("\t%q: %q,", k, gotUpd[k]))
		}
	}
	if len(diff) > 0 || len(got) != len(wantLPDigests) || len(gotUpd) != len(wantUpdateDigests) {
		t.Fatalf("%d of %d pinned formulations moved (pinned %d LPs, %d plans); got:\n%s",
			len(diff), len(got)+len(gotUpd), len(wantLPDigests), len(wantUpdateDigests), strings.Join(diff, "\n"))
	}
}

// planDigest hashes an update plan's steps bit for bit, in flow order.
func planDigest(p *UpdatePlan) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, st := range p.Steps {
		for _, f := range tunnel.SortedFlows(st.Rate) {
			put(st.Rate[f])
			for _, a := range st.Alloc[f] {
				put(a)
			}
		}
		h.Write([]byte{'|'})
	}
	return fmt.Sprintf("%d steps, %d LPs, %x", len(p.Steps), p.Solves, h.Sum(nil)[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
