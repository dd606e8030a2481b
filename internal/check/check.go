// Package check is the certifier for FFC TE plans: every caller that asks
// whether a plan is safe — ffcd's install path, ffcte -verify, ffccheck,
// the ffc facade, the testbed, the property harness and the tests — asks
// Certify. It takes only a topology and a computed configuration (rates +
// tunnel allocations) and verifies the paper's guarantees directly,
// sharing no code with the LP formulation or the sorting-network
// encodings, so solver-side and checker-side bugs don't correlate. Its
// results are held to serial test oracles (oracle_test.go) and to
// core.VerifyDataPlane, the solver side's serial enumerator.
//
// The data plane is always enumerated exactly: every combination of ≤ ke
// link and ≤ kv switch failures is resolved, with dominance pruning (only
// elements that can shift load are enumerated, everything else is covered
// by monotonicity) and Lemma-1 node bounds that dismiss whole subtrees of
// provably safe cases. Control-plane certification is exact too: per link,
// the worst set of ≤ kc stale ingresses is the top-kc positive
// stale-minus-new deltas, no enumeration required. The result is a typed
// Certificate recording how many cases were checked and covered, the worst
// residual slack seen, and the violating fault set if any.
package check

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Mode selects nothing: every certification enumerates exactly, and
// Certify ignores Params.Mode. Mode, the field and Adversarial stay only
// because benchmark/adapter.go names them for its traced check.adversarial
// diagnostic (now a second exact run); a benchmark-archetype change removes
// them together with that diagnostic.
type Mode int

// Adversarial is inert; see Mode.
const Adversarial Mode = 2

// Params parameterizes one certification.
type Params struct {
	// Prot is the protection level to certify against.
	Prot core.Protection
	// RateLimiter is the control-plane fault model (§5.5), matching the
	// one the plan was computed for.
	RateLimiter core.RateLimiterMode
	// Mode is inert; see Mode.
	Mode Mode
	// Capacity overrides link capacities (nil = topology capacities).
	Capacity map[topology.LinkID]float64
	// DownLinks / DownSwitches are elements already failed when the plan
	// was installed. They apply to every checked case, and the protection
	// budget is spent on the surviving elements only.
	DownLinks    map[topology.LinkID]bool
	DownSwitches map[topology.SwitchID]bool
	// FailFast stops at the first violating case instead of scanning for
	// the worst one.
	FailFast bool
	// Probe, when set, is a fault case the search evaluates, beside the
	// no-fault case, in place of its greedy search for the pruning
	// threshold: a caller that certified a similar plan before passes that
	// certificate's WorstCase (see ProbeFrom). It changes how fast a
	// certification runs, never its verdict. A probe outside the certified
	// space — more than ke links or kv switches once its already-down
	// elements are dropped, or naming an element the network lacks — is
	// ignored, since its slack could fall below the worst in-space slack
	// the threshold must cover.
	Probe *FaultSet
}

// FaultSet names one combination of faults.
type FaultSet struct {
	// Links are failed physical links (canonical direction).
	Links []topology.LinkID `json:"-"`
	// Switches are failed switches.
	Switches []topology.SwitchID `json:"-"`
	// Stale are ingress switches stuck on their previous configuration.
	Stale []topology.SwitchID `json:"-"`

	LinkNames   []string `json:"links,omitempty"`
	SwitchNames []string `json:"switches,omitempty"`
	StaleNames  []string `json:"stale,omitempty"`
}

// Empty reports whether the set holds no faults.
func (fs FaultSet) Empty() bool {
	return len(fs.Links) == 0 && len(fs.Switches) == 0 && len(fs.Stale) == 0
}

// Violation is one fault case that overloads a link.
type Violation struct {
	// Plane is "data" (link/switch failures with ingress rescaling) or
	// "control" (stale ingress configurations).
	Plane string `json:"plane"`
	// Link is the overloaded directed link.
	Link     topology.LinkID `json:"-"`
	LinkName string          `json:"link"`
	// Load, Capacity, and Over (= Load − Capacity) at the violation.
	Load     float64 `json:"load"`
	Capacity float64 `json:"capacity"`
	Over     float64 `json:"over"`
	// Faults is the violating fault set.
	Faults FaultSet `json:"faults"`
}

// Certificate is the certification verdict.
type Certificate struct {
	// OK is true when no checked case overloads any link: a proof over
	// every fault combination within the protection level.
	OK bool `json:"ok"`
	// Exact is always true and Mode always "exact": every certification
	// enumerates the data plane in full. Both stay so that verdict lines
	// and summaries read as they always have.
	Exact bool   `json:"exact"`
	Mode  string `json:"mode"`

	Kc int `json:"kc"`
	Ke int `json:"ke"`
	Kv int `json:"kv"`

	// CasesChecked counts resolved fault cases: data-plane combinations
	// evaluated, or dismissed by a node bound that proves slack > T, plus
	// the control-plane stale sets the per-link top-kc selection resolves
	// exactly (none enumerated individually, every one decided).
	CasesChecked int64 `json:"cases_checked"`
	// CasesCovered counts the fault combinations the verdict covers,
	// including those dismissed by dominance pruning; ≥ CasesChecked.
	CasesCovered int64 `json:"cases_covered"`

	// WorstSlack is the smallest residual capacity (capacity − load) seen
	// on any loaded link over all checked cases; negative beyond the
	// 1e-6·max(1, cap) tolerance iff a violation was found (a plan solved
	// to the capacity boundary can sit a few ulps below zero and still
	// certify). When no case loads any link it is the smallest link
	// capacity.
	WorstSlack float64 `json:"worst_slack"`
	// WorstLink and WorstCase attain WorstSlack.
	WorstLink string   `json:"worst_link,omitempty"`
	WorstCase FaultSet `json:"worst_case"`

	// Violation is the worst overload found (nil when OK); with FailFast,
	// the first in enumeration order.
	Violation *Violation `json:"violation,omitempty"`

	Elapsed time.Duration `json:"elapsed_ns"`
}

// Summary renders the certificate as one human-readable line. The property
// harness (internal/prop, cmd/ffcprop) embeds it in failure details and
// repro files, so a violation reads identically wherever it surfaces.
func (c *Certificate) Summary() string {
	if c.OK {
		return fmt.Sprintf("%s-OK kc=%d ke=%d kv=%d: %d cases checked (%d covered), worst slack %.6g on %q",
			c.Mode, c.Kc, c.Ke, c.Kv, c.CasesChecked, c.CasesCovered, c.WorstSlack, c.WorstLink)
	}
	v := c.Violation
	return fmt.Sprintf("VIOLATION (%s plane, %s mode) link %q: load %.6g > capacity %.6g (over %.6g) under links=%v switches=%v stale=%v",
		v.Plane, c.Mode, v.LinkName, v.Load, v.Capacity, v.Over,
		v.Faults.LinkNames, v.Faults.SwitchNames, v.Faults.StaleNames)
}

// tolerance mirrors the slack every planner and verifier in this repo
// allows: load exceeds cap only beyond 1e-6·max(1, cap).
func tolerance(cap float64) float64 { return 1e-6 * math.Max(1, cap) }

// at reads sl[i] with 0 for out-of-range indexes, so short or missing
// allocation vectors read as zero allocation rather than panicking.
func at(sl []float64, i int) float64 {
	if i < 0 || i >= len(sl) {
		return 0
	}
	return sl[i]
}

// weightsOf converts an allocation vector into splitting weights the way
// ingress switches do: a/Σa, uniform when the vector sums to zero. It
// writes them over dst's array when that is long enough.
// (Reimplemented here on purpose — the checker trusts nothing from the
// solver side beyond the plan data itself.)
func weightsOf(dst, alloc []float64) []float64 {
	w := append(dst[:0], alloc...)
	var sum float64
	for _, a := range alloc {
		sum += a
	}
	if sum <= 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return w
	}
	for i, a := range alloc {
		w[i] = a / sum
	}
	return w
}

// Certify verifies that the plan st over net/set satisfies the FFC
// guarantees of p.Prot. prev is the previously installed plan (required
// when Prot.Kc > 0 — stale switches run it); pass st itself when
// certifying a plan with no predecessor.
func Certify(net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) (*Certificate, error) {
	start := time.Now()
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		return nil, err
	}
	data := c.exactData()
	obsLinksKept.Observe(int64(data.linksKept))
	obsFlowsKept.Observe(int64(data.flowsKept))
	obsCasesEvaluated.Observe(data.evaluated)
	cert := c.certificate(data, prev)
	cert.Elapsed = time.Since(start)
	return cert, nil
}

// ProbeFrom returns the Params.Probe for a certification at p drawn from
// prior, a certificate issued over the down sets downLinks and
// downSwitches: prior's WorstCase when prior was issued at p's ke and kv
// over the same down sets as p, else nil. A worst case that is a stale set
// (a control-plane slack) names no data-plane faults, so it yields nil too.
// After a down set changes, the last worst case tends to sit far from the
// new one and the greedy search sets a tighter threshold.
func ProbeFrom(prior *Certificate, downLinks map[topology.LinkID]bool, downSwitches map[topology.SwitchID]bool, p Params) *FaultSet {
	if prior == nil || prior.Ke != p.Prot.Ke || prior.Kv != p.Prot.Kv || len(prior.WorstCase.Stale) > 0 ||
		!sameSet(downLinks, p.DownLinks) || !sameSet(downSwitches, p.DownSwitches) {
		return nil
	}
	return &prior.WorstCase
}

// sameSet reports whether a and b hold the same true keys.
func sameSet[K comparable](a, b map[K]bool) bool {
	n := 0
	for k, v := range a {
		if v {
			if !b[k] {
				return false
			}
			n++
		}
	}
	for _, v := range b {
		if v {
			n--
		}
	}
	return n == 0
}

// prepare validates the inputs and indexes the plan.
func prepare(net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) (*checker, error) {
	if net == nil || set == nil || st == nil {
		return nil, fmt.Errorf("check: nil network, tunnel set, or state")
	}
	if p.Prot.Kc < 0 || p.Prot.Ke < 0 || p.Prot.Kv < 0 {
		return nil, fmt.Errorf("check: negative protection level %v", p.Prot)
	}
	if p.Prot.Kc > 0 && prev == nil {
		return nil, fmt.Errorf("check: kc=%d needs the previous state", p.Prot.Kc)
	}
	if err := validState(st); err != nil {
		return nil, err
	}
	if prev != nil {
		if err := validState(prev); err != nil {
			return nil, fmt.Errorf("check: previous state: %w", err)
		}
	}
	return newChecker(net, set, st, p), nil
}

// certificate turns the data-plane enumeration's result into the verdict,
// adding the control plane (per-link top-kc selection).
func (c *checker) certificate(data searchResult, prev *core.State) *Certificate {
	p := c.p
	cert := &Certificate{
		Kc: p.Prot.Kc, Ke: p.Prot.Ke, Kv: p.Prot.Kv,
		Exact: true, Mode: "exact",
		CasesChecked: data.cases, CasesCovered: data.cases,
		WorstSlack: data.slack, Violation: data.worst,
	}
	if !data.aborted {
		// Dominance: combos touching only inert elements behave like
		// their active projection, so the full space is covered.
		cert.CasesCovered = satInt64(binomSum(len(c.phys), p.Prot.Ke) * binomSum(len(c.sws), p.Prot.Kv))
	}
	if data.slackLink >= 0 {
		cert.WorstLink = c.net.LinkName(topology.LinkID(data.slackLink))
		cert.WorstCase = c.faultSet(data.slackLinks, data.slackSws, nil)
	}

	if p.Prot.Kc > 0 && (cert.Violation == nil || !p.FailFast) {
		ctrl := c.certifyControl(prev)
		staleSets := satInt64(binomSum(ctrl.sources, p.Prot.Kc))
		cert.CasesChecked += staleSets
		cert.CasesCovered += staleSets
		if ctrl.slack < cert.WorstSlack {
			cert.WorstSlack = ctrl.slack
			cert.WorstLink = c.net.LinkName(ctrl.slackLink)
			cert.WorstCase = c.faultSet(nil, nil, ctrl.slackStale)
		}
		if ctrl.worst != nil && (cert.Violation == nil || ctrl.worst.Over > cert.Violation.Over) {
			cert.Violation = ctrl.worst
		}
	}

	if math.IsInf(cert.WorstSlack, 1) {
		// No case loaded any link: the binding slack is the smallest
		// capacity a fault-free, traffic-free network leaves untouched.
		cert.WorstSlack = 0
		cert.WorstLink = ""
		for _, l := range c.net.Links {
			cp := c.cap[l.ID]
			if cert.WorstLink == "" || cp < cert.WorstSlack {
				cert.WorstSlack = cp
				cert.WorstLink = c.net.LinkName(l.ID)
			}
		}
		cert.WorstCase = FaultSet{}
	}
	cert.OK = cert.Violation == nil
	return cert
}

// validState rejects non-finite or negative rates and allocations — a
// corrupted plan must fail certification loudly, not poison float math.
func validState(st *core.State) error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	for f, r := range st.Rate {
		if bad(r) {
			return fmt.Errorf("check: flow %v: rate %g", f, r)
		}
	}
	for f, alloc := range st.Alloc {
		for i, a := range alloc {
			if bad(a) {
				return fmt.Errorf("check: flow %v tunnel %d: alloc %g", f, i, a)
			}
		}
	}
	return nil
}

// checker is the dense plan index one certification works over.
type checker struct {
	net *topology.Network
	set *tunnel.Set
	st  *core.State
	p   Params

	// cap is the effective capacity per directed link and tol its
	// overload tolerance, tabulated so no fault case calls math.Max.
	cap, tol []float64

	// phys are the candidate physical links (canonical direction, not
	// already down); physOf maps a directed link to its candidate index
	// (−1 when its physical link is pre-down).
	phys   []topology.LinkID
	physOf []int
	// sws are the candidate switches (not already down); swOf maps a
	// switch to its candidate index (−1 when pre-down).
	sws  []topology.SwitchID
	swOf []int

	flows []cflow

	// activeP / activeS index into phys / sws: the elements whose failure
	// can change some link's load (used by a positive-weight tunnel of a
	// positive-rate flow; switches only as intermediate hops — endpoint
	// failures drop whole flows, which is load-monotone). Every other
	// element is covered by dominance.
	activeP []int
	activeS []int

	// killP / killS list, per candidate link / switch, the tunnels its
	// failure takes (every tunnel of a flow whose endpoint the switch is),
	// so a case's tunnel liveness is a few ORs. memoSlots is the size of an
	// evaluator's memo table.
	killP, killS [][]kill
	memoSlots    int
}

// memoBits caps a flow's memo table at 2^memoBits dead-tunnel masks; a flow
// with more live positive-weight tunnels is wide and evaluated directly.
const memoBits = 12

// kill is tunnels (mask bits) of one flow that a candidate's failure takes.
type kill struct {
	flow int
	mask uint32
}

type cflow struct {
	f    tunnel.Flow
	rate float64
	// srcC / dstC are candidate-switch indexes of the endpoints.
	srcC, dstC int
	tuns       []ctun
	// slot is the flow's first entry in an evaluator's memo table, one per
	// dead-tunnel mask; −1 marks a wide flow.
	slot int
}

type ctun struct {
	// w is the effective splitting weight.
	w float64
	// links are the directed links traversed.
	links []topology.LinkID
	// physC / midC are candidate indexes of the traversed physical links
	// and intermediate switches.
	physC []int
	midC  []int
	// dead marks a tunnel crossing a pre-down element.
	dead bool
	// bit is the tunnel's dead-mask bit: set for the tunnels that can carry
	// load (not dead, positive weight) of a flow that is not wide.
	bit uint32
}

func newChecker(net *topology.Network, set *tunnel.Set, st *core.State, p Params) *checker {
	c := &checker{net: net, set: set, st: st, p: p}

	c.cap = make([]float64, len(net.Links))
	c.tol = make([]float64, len(net.Links))
	for _, l := range net.Links {
		c.cap[l.ID] = l.Capacity
		if p.Capacity != nil {
			if o, ok := p.Capacity[l.ID]; ok {
				c.cap[l.ID] = o
			}
		}
		c.tol[l.ID] = tolerance(c.cap[l.ID])
	}

	linkDown := func(l topology.LinkID) bool {
		if p.DownLinks[l] {
			return true
		}
		tw := net.Links[l].Twin
		return tw != topology.None && p.DownLinks[tw]
	}
	c.physOf = make([]int, len(net.Links))
	c.phys = make([]topology.LinkID, 0, len(net.Links))
	for i := range c.physOf {
		c.physOf[i] = -1
	}
	for _, l := range net.Links {
		if net.Physical(l.ID) != l.ID || linkDown(l.ID) {
			continue
		}
		ci := len(c.phys)
		c.phys = append(c.phys, l.ID)
		c.physOf[l.ID] = ci
		if l.Twin != topology.None {
			c.physOf[l.Twin] = ci
		}
	}

	c.swOf = make([]int, len(net.Switches))
	c.sws = make([]topology.SwitchID, 0, len(net.Switches))
	for i := range c.swOf {
		c.swOf[i] = -1
	}
	for _, sw := range net.Switches {
		if p.DownSwitches[sw.ID] {
			continue
		}
		c.swOf[sw.ID] = len(c.sws)
		c.sws = append(c.sws, sw.ID)
	}

	// Every flow's tunnels, and every tunnel's candidate lists, are carved
	// from one array each, sized for the whole tunnel set.
	var nTun, nHop, nMid int
	for _, f := range set.All() {
		for _, t := range set.Tunnels(f) {
			nTun++
			nHop += len(t.Links)
			nMid += max(len(t.Switches)-2, 0)
		}
	}
	c.flows = make([]cflow, 0, len(set.All()))
	tuns := make([]ctun, 0, nTun)
	physC, midC := make([]int, 0, nHop), make([]int, 0, nMid)
	var w []float64

	activeP := make([]bool, len(c.phys))
	activeS := make([]bool, len(c.sws))
	for _, f := range set.All() {
		rate := st.Rate[f]
		if rate == 0 {
			continue
		}
		if int(f.Src) >= len(c.swOf) || int(f.Dst) >= len(c.swOf) {
			continue
		}
		srcC, dstC := c.swOf[f.Src], c.swOf[f.Dst]
		if srcC < 0 || dstC < 0 {
			continue // an endpoint is already down: the flow sends nothing
		}
		ts := set.Tunnels(f)
		w = weightsOf(w, st.Alloc[f])
		fl := cflow{f: f, rate: rate, srcC: srcC, dstC: dstC}
		anyAlive, carrying, first := false, 0, len(tuns)
		for _, t := range ts {
			ct := ctun{w: at(w, t.Index), links: t.Links}
			if len(w) == 0 && len(ts) > 0 {
				// No allocation vector at all: ingress splits uniformly.
				ct.w = 1 / float64(len(ts))
			}
			from := len(physC)
			for _, l := range t.Links {
				pi := c.physOf[l]
				if pi < 0 {
					ct.dead = true
					break
				}
				physC = append(physC, pi)
			}
			ct.physC = physC[from:len(physC):len(physC)]
			if !ct.dead {
				from := len(midC)
				for _, v := range t.Switches[1 : len(t.Switches)-1] {
					si := c.swOf[v]
					if si < 0 {
						ct.dead = true
						break
					}
					midC = append(midC, si)
				}
				ct.midC = midC[from:len(midC):len(midC)]
			}
			if !ct.dead {
				anyAlive = true
				if ct.w > 0 {
					carrying++
					for _, pi := range ct.physC {
						activeP[pi] = true
					}
					for _, si := range ct.midC {
						activeS[si] = true
					}
				}
			}
			tuns = append(tuns, ct)
		}
		if anyAlive {
			fl.tuns = tuns[first:len(tuns):len(tuns)]
			c.indexKills(&fl, carrying)
			c.flows = append(c.flows, fl)
		}
	}
	c.indexKillLists()
	for i, on := range activeP {
		if on {
			c.activeP = append(c.activeP, i)
		}
	}
	for i, on := range activeS {
		if on {
			c.activeS = append(c.activeS, i)
		}
	}
	return c
}

// indexKills gives fl — about to become flow len(c.flows), with that many
// load-carrying tunnels — its memo slots and mask bits; indexKillLists then
// enters them in the kill lists.
func (c *checker) indexKills(fl *cflow, carrying int) {
	fl.slot = -1
	if carrying > memoBits {
		return
	}
	fl.slot = c.memoSlots
	c.memoSlots += 1 << carrying
	bit := uint32(1)
	for ti := range fl.tuns {
		t := &fl.tuns[ti]
		if t.dead || t.w <= 0 {
			continue
		}
		t.bit = bit
		bit <<= 1
	}
}

// indexKillLists builds killP and killS from the flows' mask bits, every
// list in flow order over one array per kind.
func (c *checker) indexKillLists() {
	nP, nS := make([]int, len(c.phys)), make([]int, len(c.sws))
	c.eachKill(func(sw bool, i int, _ kill) {
		if sw {
			nS[i]++
		} else {
			nP[i]++
		}
	})
	c.killP, c.killS = carve(nP), carve(nS)
	c.eachKill(func(sw bool, i int, k kill) {
		if sw {
			c.killS[i] = append(c.killS[i], k)
		} else {
			c.killP[i] = append(c.killP[i], k)
		}
	})
}

// eachKill calls fn with every kill-list entry: per narrow flow, its
// tunnels' links and intermediate switches, then its endpoints, which stop
// the flow as losing every tunnel does.
func (c *checker) eachKill(fn func(sw bool, i int, k kill)) {
	for fi := range c.flows {
		fl := &c.flows[fi]
		if fl.slot < 0 {
			continue
		}
		var all uint32
		for ti := range fl.tuns {
			t := &fl.tuns[ti]
			if t.bit == 0 {
				continue
			}
			all |= t.bit
			for _, pi := range t.physC {
				fn(false, pi, kill{fi, t.bit})
			}
			for _, si := range t.midC {
				fn(true, si, kill{fi, t.bit})
			}
		}
		fn(true, fl.srcC, kill{fi, all})
		fn(true, fl.dstC, kill{fi, all})
	}
}

// carve returns empty lists of capacities n over one array.
func carve(n []int) [][]kill {
	total := 0
	for _, k := range n {
		total += k
	}
	all, lists := make([]kill, total), make([][]kill, len(n))
	off := 0
	for i, k := range n {
		lists[i] = all[off : off : off+k]
		off += k
	}
	return lists
}

// faultSet resolves candidate indexes / switch IDs into a named FaultSet.
func (c *checker) faultSet(physIdx, swIdx []int, stale []topology.SwitchID) FaultSet {
	var fs FaultSet
	for _, pi := range physIdx {
		l := c.phys[pi]
		fs.Links = append(fs.Links, l)
		lk := c.net.Links[l]
		fs.LinkNames = append(fs.LinkNames, c.net.Switches[lk.Src].Name+"-"+c.net.Switches[lk.Dst].Name)
	}
	for _, si := range swIdx {
		v := c.sws[si]
		fs.Switches = append(fs.Switches, v)
		fs.SwitchNames = append(fs.SwitchNames, c.net.Switches[v].Name)
	}
	for _, v := range stale {
		fs.Stale = append(fs.Stale, v)
		fs.StaleNames = append(fs.StaleNames, c.net.Switches[v].Name)
	}
	return fs
}

// caseResult is one fault case's evaluation.
type caseResult struct {
	// slack is min(cap − load) over loaded links, +Inf when nothing is
	// loaded; slackLink attains it.
	slack     float64
	slackLink topology.LinkID
	// over is the worst overload (0 when none); overLink attains it.
	over     float64
	overLink topology.LinkID
	load, cp float64
}

// searchResult aggregates a data-plane search.
type searchResult struct {
	cases, evaluated int64 // resolved; of those, not dismissed by a node bound
	// slack is the worst (smallest) per-case slack; slackLink, slackLinks
	// and slackSws describe where and under which faults. slackLink is −1
	// until some case loads a link.
	slack      float64
	slackLink  int
	slackLinks []int
	slackSws   []int
	worst      *Violation
	aborted    bool

	linksKept, flowsKept int // the size of the search's pruned index
}

// note folds one evaluated case into the running result; returns false
// when the search should stop (fail-fast on a violation).
func (c *checker) note(res *searchResult, cr caseResult, physSel, swSel []int) bool {
	res.cases++
	res.evaluated++
	if cr.slackLink >= 0 && cr.slack < res.slack {
		res.slack = cr.slack
		res.slackLink = int(cr.slackLink)
		res.slackLinks = append(res.slackLinks[:0], physSel...)
		res.slackSws = append(res.slackSws[:0], swSel...)
	}
	if cr.over > 0 && (res.worst == nil || cr.over > res.worst.Over) {
		res.worst = &Violation{
			Plane:    "data",
			Link:     cr.overLink,
			LinkName: c.net.LinkName(cr.overLink),
			Load:     cr.load,
			Capacity: cr.cp,
			Over:     cr.over,
			Faults:   c.faultSet(physSel, swSel, nil),
		}
		if c.p.FailFast {
			res.aborted = true
			return false
		}
	}
	return true
}

// binom is C(n, k) in float64, exact while it fits the mantissa.
func binom(n, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v = v * float64(n-i) / float64(i+1)
	}
	return v
}

// binomSum is Σ_{i=0..k} C(n, i) in float64 (the counts get astronomical;
// certificate saturates them to int64).
func binomSum(n, k int) float64 {
	total := 0.0
	for i := 0; i <= min(k, n); i++ {
		total += binom(n, i)
	}
	return total
}

func satInt64(v float64) int64 {
	if v >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(v)
}

// sortedStale returns stale switch IDs in deterministic order.
func sortedStale(m []topology.SwitchID) []topology.SwitchID {
	out := append([]topology.SwitchID(nil), m...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
