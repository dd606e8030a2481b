// Package prop is the property-based metamorphic test harness for the FFC
// pipeline. It generates randomized end-to-end scenarios — topology kind ×
// gravity demands × fault sets × protection level × solve path — runs the
// full build → solve → verify → certify pipeline on each, and checks a
// suite of paper-level metamorphic invariants (protection monotonicity,
// FFC ≤ plain TE, joint scale invariance, relabeling invariance, exact
// certification, degraded-plan safety). The paper's own evaluation sweeps
// randomized fault scenarios rather than fixed cases (Figs 1, 12–15); this
// package turns that methodology into an executable guarantee check.
//
// A Scenario is fully concrete: every random choice happens in Generate and
// is recorded in the struct, so Run is deterministic and RNG-free. That is
// what makes failing cases shrinkable (Shrink) and replayable from a
// self-contained JSON repro file (WriteRepro/ReadRepro, cmd/ffcprop -repro,
// and the go-test replay path in this package's tests).
package prop

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// Solve paths a scenario can exercise. Each runs the same formulation
// through different machinery; the invariants must hold on all of them.
const (
	PathScratch  = "scratch"  // Solver.Solve, fresh model, cold simplex
	PathTemplate = "template" // Session: basis carry and model-template rebinding
)

// Paths lists every solve path, in the order the harness cycles them.
var Paths = []string{PathScratch, PathTemplate}

// Mutation is a deliberate post-solve corruption. It is applied after the
// plan is computed and before it is verified/certified, so a mutated
// scenario must fail the certify-ok invariant — this is how the harness
// proves, end to end, that it can catch, shrink, and replay real
// violations. The zero value (nil pointer) means no corruption.
type Mutation struct {
	// Kind is "scale-capacity" (multiply one directed link's capacity by
	// Factor during verification) or "bump-rate" (multiply one flow's
	// solved rate by Factor before verification).
	Kind string `json:"kind"`
	// Link names the directed link ("src>dst") for scale-capacity.
	Link string `json:"link,omitempty"`
	// Src/Dst name the flow for bump-rate.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Factor is the multiplier.
	Factor float64 `json:"factor"`
}

// Mutation kinds.
const (
	MutScaleCapacity = "scale-capacity"
	MutBumpRate      = "bump-rate"
)

// Scenario is one fully-materialized end-to-end pipeline input. Everything
// is value-level and name-keyed so the JSON encoding is a self-contained
// repro: no seed re-derivation, no layout flags to match, no RNG at replay.
type Scenario struct {
	// Name labels the scenario (e.g. "seed-42"); informational.
	Name string `json:"name,omitempty"`
	// Seed records the generator seed for provenance; Run never reads it.
	Seed int64 `json:"seed"`
	// Kind records the topology family the generator drew; informational.
	Kind string `json:"kind,omitempty"`

	Topo *topology.Network `json:"topology"`
	// Demands is the TE interval under test; PrevDemands is the preceding
	// interval (it produces the previously-installed state control-plane
	// FFC is relative to, and primes the session solve paths).
	Demands     []wire.DemandEntry `json:"demands"`
	PrevDemands []wire.DemandEntry `json:"prev_demands,omitempty"`

	Kc int `json:"kc"`
	Ke int `json:"ke"`
	Kv int `json:"kv"`

	// Path is one of the Path* constants; Encoding is "sortnet",
	// "compact", or "naive"; RateLimiter is "synced", "ordered", or
	// "independent".
	Path        string `json:"path"`
	Encoding    string `json:"encoding"`
	RateLimiter string `json:"rate_limiter,omitempty"`
	// TunnelsPerFlow caps |Tf| at layout time (0 = the layout default).
	TunnelsPerFlow int `json:"tunnels_per_flow,omitempty"`

	// DownLinks ("src>dst", canonical direction; the twin goes down too)
	// and DownSwitches are elements already failed when the plan is
	// computed.
	DownLinks    []string `json:"down_links,omitempty"`
	DownSwitches []string `json:"down_switches,omitempty"`
	// ExtraFaultLinks/Switches strike after the plan is installed; the
	// degraded-certifies invariant re-certifies the Degrade()d plan under
	// them.
	ExtraFaultLinks    []string `json:"extra_fault_links,omitempty"`
	ExtraFaultSwitches []string `json:"extra_fault_switches,omitempty"`

	// Scale is the λ the scale-invariance check multiplies capacities and
	// demands by (a power of two, so the scaling is float-exact).
	Scale float64 `json:"scale,omitempty"`
	// Relabel is the switch permutation the relabeling-invariance check
	// applies: new switch i is old switch Relabel[i].
	Relabel []int `json:"relabel,omitempty"`

	// Mutation, when set, corrupts the pipeline post-solve (see Mutation).
	Mutation *Mutation `json:"mutation,omitempty"`

	// Invariants restricts which invariants Run checks (nil = all).
	Invariants []string `json:"invariants,omitempty"`
}

// Clone deep-copies the scenario via its JSON form (the struct is built to
// round-trip exactly).
func (sc *Scenario) Clone() *Scenario {
	blob, err := json.Marshal(sc)
	if err != nil {
		panic(fmt.Sprintf("prop: scenario does not marshal: %v", err))
	}
	var c Scenario
	if err := json.Unmarshal(blob, &c); err != nil {
		panic(fmt.Sprintf("prop: scenario does not round-trip: %v", err))
	}
	return &c
}

// maxExactCases bounds the data-plane fault-combination count a generated
// scenario may imply. The certifier always enumerates exactly, whatever the
// count, so this is only a test-time budget: it keeps each scenario's
// certifications within the short pass's time. The generator downgrades
// ke/kv until the estimate fits.
const maxExactCases = 20000

// Generate draws one concrete scenario from seed. Identical seeds produce
// identical scenarios (all randomness flows through sub-seeded *rand.Rand
// streams — see faults.DeriveSeed); the returned scenario never needs the
// seed again.
func Generate(seed int64) *Scenario {
	topoRng := rand.New(rand.NewSource(faults.DeriveSeed(seed, 1)))
	demRng := rand.New(rand.NewSource(faults.DeriveSeed(seed, 2)))
	cfgRng := rand.New(rand.NewSource(faults.DeriveSeed(seed, 3)))
	faultRng := rand.New(rand.NewSource(faults.DeriveSeed(seed, 4)))

	sc := &Scenario{Name: fmt.Sprintf("seed-%d", seed), Seed: seed}

	// Topology family. Sizes are kept small enough that the exact
	// data-plane enumeration stays cheap; S-Net and fat-tree runs carry
	// reduced protection for the same reason.
	edgeSwitch := 0
	switch k := topoRng.Intn(10); {
	case k < 4:
		sc.Kind = "lnet"
		cfg := topology.LNetConfig{
			Sites:           3 + topoRng.Intn(3), // 3..5
			SwitchesPerSite: 1 + topoRng.Intn(2), // 1..2
		}
		sc.Topo = topology.LNet(cfg, topoRng)
	case k < 6:
		sc.Kind = "testbed"
		sc.Topo = topology.Testbed()
	case k < 8:
		sc.Kind = "example4"
		sc.Topo = topology.Example4()
	case k < 9:
		sc.Kind = "snet"
		sc.Topo = topology.SNet()
	default:
		sc.Kind = "fattree"
		sc.Topo = topology.FatTree(4, 10)
		edgeSwitch = 1 // pod sites list agg first; index 1 is the edge switch
	}

	// Demands: two gravity-model intervals (previous + current), scaled to
	// a randomized utilization regime. Any regime is valid — the scale only
	// decides whether capacity binds.
	series := demand.Generate(sc.Topo, demand.Config{Intervals: 2, EdgeSwitch: edgeSwitch}, demRng)
	util := 0.1 + demRng.Float64()*1.4
	k := util * sc.Topo.TotalCapacity() / (8 * math.Max(series[1].Total(), 1e-9))
	sc.PrevDemands = encodeDemands(sc.Topo, series[0].Scale(k))
	sc.Demands = encodeDemands(sc.Topo, series[1].Scale(k))

	// Protection level, downgraded until the exact data-plane enumeration
	// the certifier will run stays within the test-time budget.
	sc.Ke = cfgRng.Intn(3)
	sc.Kv = [4]int{0, 0, 0, 1}[cfgRng.Intn(4)]
	sc.Kc = [4]int{0, 1, 1, 2}[cfgRng.Intn(4)]
	nPhys, nSw := countElements(sc.Topo)
	for sc.Kv > 0 && exactCaseEstimate(nPhys, nSw, sc.Ke, sc.Kv) > maxExactCases {
		sc.Kv--
	}
	for sc.Ke > 0 && exactCaseEstimate(nPhys, nSw, sc.Ke, sc.Kv) > maxExactCases {
		sc.Ke--
	}
	if len(sc.Demands) > 100 && sc.Ke > 1 {
		// Data-plane sortnet blocks scale with flows × ke; ke=2 on the
		// 100+-flow topologies turns one scenario into a multi-second LP.
		sc.Ke = 1
	}

	sc.Path = Paths[cfgRng.Intn(len(Paths))]
	switch e := cfgRng.Intn(10); {
	case e < 6:
		sc.Encoding = "sortnet"
	case e < 9:
		sc.Encoding = "compact"
	default:
		sc.Encoding = "naive"
	}
	if sc.Encoding == "naive" && (sc.Ke+sc.Kv > 2 || nSw > 12) {
		sc.Encoding = "sortnet" // the enumeration would swamp the pass
	}
	if sc.Kc > 0 {
		sc.RateLimiter = [5]string{"synced", "synced", "synced", "ordered", "independent"}[cfgRng.Intn(5)]
	}
	sc.TunnelsPerFlow = 2 + cfgRng.Intn(3) // 2..4

	// Pre-down elements (faults persisting from earlier intervals) and the
	// post-install faults the degraded-certifies invariant applies.
	if faultRng.Float64() < 0.3 {
		links, _ := faults.PickFaults(sc.Topo, faultRng, 1, 0)
		sc.DownLinks = linkNames(sc.Topo, links)
	}
	if faultRng.Float64() < 0.15 {
		_, sws := faults.PickFaults(sc.Topo, faultRng, 0, 1)
		sc.DownSwitches = switchNames(sc.Topo, sws)
	}
	if faultRng.Float64() < 0.6 {
		nl := 1 + faultRng.Intn(2)
		ns := 0
		if faultRng.Float64() < 0.25 {
			ns = 1
		}
		links, sws := faults.PickFaults(sc.Topo, faultRng, nl, ns)
		sc.ExtraFaultLinks = linkNames(sc.Topo, links)
		sc.ExtraFaultSwitches = switchNames(sc.Topo, sws)
	}

	sc.Scale = []float64{0.25, 0.5, 2, 4}[cfgRng.Intn(4)]
	sc.Relabel = cfgRng.Perm(sc.Topo.NumSwitches())
	return sc
}

// exactCaseEstimate mirrors the certifier's pre-pruning case count: the
// generator uses it to keep a scenario's certifications quick.
func exactCaseEstimate(nPhys, nSw, ke, kv int) float64 {
	return binomSum(nPhys, ke) * binomSum(nSw, kv)
}

func binomSum(n, k int) float64 {
	if k > n {
		k = n
	}
	total, term := 0.0, 1.0
	for i := 0; i <= k; i++ {
		total += term
		term = term * float64(n-i) / float64(i+1)
	}
	return total
}

func countElements(net *topology.Network) (phys, sws int) {
	return len(net.PhysicalLinks()), net.NumSwitches()
}

// encodeDemands renders a matrix as name-keyed entries in deterministic
// flow order (wire.EncodeDemands), dropping zero flows.
func encodeDemands(net *topology.Network, m demand.Matrix) []wire.DemandEntry {
	pos := demand.Matrix{}
	for f, d := range m {
		if d > 0 {
			pos[f] = d
		}
	}
	return wire.EncodeDemands(net, pos).Demands
}

func linkNames(net *topology.Network, links []topology.LinkID) []string {
	var out []string
	for _, l := range links {
		out = append(out, net.LinkName(l))
	}
	return out
}

func switchNames(net *topology.Network, sws []topology.SwitchID) []string {
	var out []string
	for _, v := range sws {
		out = append(out, net.Switches[v].Name)
	}
	return out
}

// env is a materialized scenario: IDs resolved, tunnels laid out, matrices
// built. Variants (scaled, relabeled) materialize their own env.
type env struct {
	sc   *Scenario
	net  *topology.Network
	set  *tunnel.Set
	opts core.Options

	demands demand.Matrix
	prevDem demand.Matrix
	prot    core.Protection

	downLinks    map[topology.LinkID]bool
	downSwitches map[topology.SwitchID]bool
	extraLinks   map[topology.LinkID]bool
	extraSws     map[topology.SwitchID]bool
}

// materialize resolves the scenario into an env, validating every name
// reference. A nil error means Run can proceed deterministically.
func (sc *Scenario) materialize() (*env, error) {
	if sc.Topo == nil {
		return nil, fmt.Errorf("prop: scenario has no topology")
	}
	if err := sc.Topo.Validate(); err != nil {
		return nil, err
	}
	e := &env{sc: sc, net: sc.Topo}

	var err error
	if e.demands, err = demandMatrix(e.net, sc.Demands); err != nil {
		return nil, err
	}
	if e.prevDem, err = demandMatrix(e.net, sc.PrevDemands); err != nil {
		return nil, err
	}
	if len(e.demands) == 0 {
		return nil, fmt.Errorf("prop: scenario has no demands")
	}
	if len(e.prevDem) == 0 {
		// A previous interval is required to prime sessions and provide
		// the kc-relative state; default to the current demands.
		e.prevDem = e.demands.Clone()
	}

	// Tunnel layout over the union of flows, then restriction of the
	// matrices to flows that actually got tunnels (core requires every
	// demanded flow to exist in the set).
	flowSet := map[tunnel.Flow]bool{}
	for f := range e.demands {
		flowSet[f] = true
	}
	for f := range e.prevDem {
		flowSet[f] = true
	}
	flows := tunnel.SortedFlows(flowSet)
	e.set = tunnel.Layout(e.net, flows, tunnel.LayoutConfig{TunnelsPerFlow: sc.TunnelsPerFlow})
	for _, f := range flows {
		if len(e.set.Tunnels(f)) == 0 {
			delete(e.demands, f)
			delete(e.prevDem, f)
		}
	}
	if len(e.demands) == 0 {
		return nil, fmt.Errorf("prop: no demanded flow has a tunnel")
	}

	e.prot = core.Protection{Kc: sc.Kc, Ke: sc.Ke, Kv: sc.Kv}
	if e.prot.Kc < 0 || e.prot.Ke < 0 || e.prot.Kv < 0 {
		return nil, fmt.Errorf("prop: negative protection level %v", e.prot)
	}

	e.opts = core.Options{}
	switch sc.Encoding {
	case "", "sortnet":
		e.opts.Encoding = core.SortNet
	case "compact":
		e.opts.Encoding = core.Compact
	case "naive":
		e.opts.Encoding = core.Naive
	default:
		return nil, fmt.Errorf("prop: unknown encoding %q", sc.Encoding)
	}
	switch sc.RateLimiter {
	case "", "synced":
		e.opts.RateLimiter = core.LimitersSynced
	case "ordered":
		e.opts.RateLimiter = core.LimitersOrdered
	case "independent":
		e.opts.RateLimiter = core.LimitersIndependent
	default:
		return nil, fmt.Errorf("prop: unknown rate-limiter mode %q", sc.RateLimiter)
	}
	switch sc.Path {
	case PathScratch, PathTemplate:
	default:
		return nil, fmt.Errorf("prop: unknown solve path %q", sc.Path)
	}

	if e.downLinks, e.downSwitches, err = downSets(e.net, sc.DownLinks, sc.DownSwitches); err != nil {
		return nil, err
	}
	if e.extraLinks, e.extraSws, err = downSets(e.net, sc.ExtraFaultLinks, sc.ExtraFaultSwitches); err != nil {
		return nil, err
	}
	if sc.Mutation != nil {
		switch sc.Mutation.Kind {
		case MutScaleCapacity:
			if e.net.LinkByName(sc.Mutation.Link) == topology.None {
				return nil, fmt.Errorf("prop: unknown link %q", sc.Mutation.Link)
			}
		case MutBumpRate:
			if _, err := wire.ResolveFlow(e.net, sc.Mutation.Src, sc.Mutation.Dst); err != nil {
				return nil, fmt.Errorf("prop: mutation: %w", err)
			}
		default:
			return nil, fmt.Errorf("prop: unknown mutation kind %q", sc.Mutation.Kind)
		}
	}
	return e, nil
}

// demandMatrix resolves demand entries (wire.AddDemands), leaving out the
// flows they give no demand.
func demandMatrix(net *topology.Network, entries []wire.DemandEntry) (demand.Matrix, error) {
	m := demand.Matrix{}
	if err := wire.AddDemands(net, m, entries); err != nil {
		return nil, fmt.Errorf("prop: %w", err)
	}
	for f, d := range m {
		if d == 0 {
			delete(m, f)
		}
	}
	return m, nil
}

// downSets resolves "src>dst" link names and switch names into down sets
// (wire.ResolveDownSets: both directions of each physical link go down).
func downSets(net *topology.Network, links, switches []string) (map[topology.LinkID]bool, map[topology.SwitchID]bool, error) {
	pairs := make([][2]string, len(links))
	for i, name := range links {
		pairs[i][0], pairs[i][1] = topology.LinkEnds(name)
	}
	dl, ds, err := wire.ResolveDownSets(net, pairs, switches)
	if err != nil {
		return nil, nil, fmt.Errorf("prop: %w", err)
	}
	return dl, ds, nil
}
