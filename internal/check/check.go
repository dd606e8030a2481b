// Package check is an independent certifier for installed FFC TE plans.
// It takes only a topology and a computed configuration (rates + tunnel
// allocations) and verifies the paper's guarantees directly, sharing no
// code with the LP formulation, the sorting-network encodings, or the
// solver-side verifiers in internal/core — solver-side and checker-side
// bugs don't correlate, so a plan that passes both was checked twice by
// genuinely different machinery.
//
// Two data-plane strategies: exact enumeration of every fault combination
// (with dominance pruning — only elements that can shift load are
// enumerated, everything else is covered by monotonicity) when the case
// count is small, and a bounded adversarial search (greedy
// worst-residual-capacity fault picking plus seeded random restarts) when
// it is not. Control-plane certification is always exact: per link, the
// worst set of ≤ kc stale ingresses is the top-kc positive stale-minus-new
// deltas, no enumeration required. The result is a typed Certificate
// recording which strategy ran, how many cases were checked and covered,
// the worst residual slack seen, and the violating fault set if any.
package check

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Mode selects the data-plane strategy.
type Mode int

const (
	// Auto runs the exact enumeration when the (pruned) case count is at
	// most Params.MaxExactCases and the adversarial search otherwise.
	Auto Mode = iota
	// Exact forces full enumeration regardless of case count.
	Exact
	// Adversarial forces the bounded search; the resulting Certificate is
	// not a proof (Exact=false).
	Adversarial
)

func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Exact:
		return "exact"
	case Adversarial:
		return "adversarial"
	}
	return "?"
}

// ParseMode parses "auto", "exact", or "adversarial".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "auto":
		return Auto, nil
	case "exact":
		return Exact, nil
	case "adversarial":
		return Adversarial, nil
	}
	return Auto, fmt.Errorf("check: unknown mode %q", s)
}

// Params parameterizes one certification.
type Params struct {
	// Prot is the protection level to certify against.
	Prot core.Protection
	// RateLimiter is the control-plane fault model (§5.5), matching the
	// one the plan was computed for.
	RateLimiter core.RateLimiterMode
	// Mode selects the data-plane strategy; default Auto.
	Mode Mode
	// Capacity overrides link capacities (nil = topology capacities).
	Capacity map[topology.LinkID]float64
	// DownLinks / DownSwitches are elements already failed when the plan
	// was installed. They apply to every checked case, and the protection
	// budget is spent on the surviving elements only.
	DownLinks    map[topology.LinkID]bool
	DownSwitches map[topology.SwitchID]bool
	// MaxExactCases bounds Auto's exact enumeration (default 200000).
	MaxExactCases int64
	// Restarts is the adversarial search's random-restart count
	// (default 48).
	Restarts int
	// Seed seeds the adversarial search (default 1).
	Seed int64
	// FailFast stops at the first violating case instead of scanning for
	// the worst one.
	FailFast bool
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
	// OK is true when no checked case overloads any link. With
	// Exact=true that is a proof over every fault combination within the
	// protection level; with Exact=false it only says the search found
	// nothing.
	OK bool `json:"ok"`
	// Exact marks a full data-plane enumeration (the control plane is
	// always exact).
	Exact bool   `json:"exact"`
	Mode  string `json:"mode"`

	Kc int `json:"kc"`
	Ke int `json:"ke"`
	Kv int `json:"kv"`

	// CasesChecked counts resolved fault cases: evaluated data-plane
	// combinations plus the control-plane stale sets the per-link top-kc
	// selection resolves exactly (no stale set is enumerated
	// individually, but every one within the level is decided).
	CasesChecked int64 `json:"cases_checked"`
	// CasesCovered counts the fault combinations the verdict covers,
	// including those dismissed by dominance pruning; ≥ CasesChecked for
	// exact runs, = CasesChecked for adversarial ones.
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
	// the first in enumeration order, whatever the worker count.
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
// ingress switches do: a/Σa, uniform when the vector sums to zero.
// (Reimplemented here on purpose — the checker trusts nothing from the
// solver side beyond the plan data itself.)
func weightsOf(alloc []float64) []float64 {
	w := make([]float64, len(alloc))
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
	exact := c.wantExact()
	var data searchResult
	if exact {
		data = c.exactData()
	} else {
		data = c.adversarialData(rand.New(rand.NewSource(c.p.Seed)), c.newEvaluator().eval)
	}
	cert := c.certificate(data, exact, prev)
	cert.Elapsed = time.Since(start)
	return cert, nil
}

// prepare validates the inputs, fills Params defaults and indexes the plan.
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
	if p.MaxExactCases == 0 {
		p.MaxExactCases = 200000
	}
	if p.Restarts == 0 {
		p.Restarts = 48
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return newChecker(net, set, st, p), nil
}

// exactCases is the pruned data-plane enumeration's case count.
func (c *checker) exactCases() float64 {
	return binomSum(len(c.activeP), c.p.Prot.Ke) * binomSum(len(c.activeS), c.p.Prot.Kv)
}

// wantExact chooses the data-plane strategy.
func (c *checker) wantExact() bool {
	return c.p.Mode == Exact || c.p.Mode == Auto && c.exactCases() <= float64(c.p.MaxExactCases)
}

// certificate turns the data-plane search result into the verdict, adding
// the control plane (per-link top-kc selection, always exact).
func (c *checker) certificate(data searchResult, exact bool, prev *core.State) *Certificate {
	p := c.p
	cert := &Certificate{
		Kc: p.Prot.Kc, Ke: p.Prot.Ke, Kv: p.Prot.Kv,
		Exact: exact, Mode: "adversarial",
		CasesChecked: data.cases, CasesCovered: data.cases,
		WorstSlack: data.slack, Violation: data.worst,
	}
	if exact {
		cert.Mode = "exact"
		if !data.aborted {
			// Dominance: combos touching only inert elements behave like
			// their active projection, so the full space is covered.
			cert.CasesCovered = satInt64(binomSum(len(c.phys), p.Prot.Ke) * binomSum(len(c.sws), p.Prot.Kv))
		}
	}
	if data.slackLink >= 0 {
		cert.WorstLink = c.linkName(topology.LinkID(data.slackLink))
		cert.WorstCase = c.faultSet(data.slackLinks, data.slackSws, nil)
	}

	if p.Prot.Kc > 0 && (cert.Violation == nil || !p.FailFast) {
		ctrl := c.certifyControl(prev)
		staleSets := satInt64(binomSum(ctrl.sources, p.Prot.Kc))
		cert.CasesChecked += staleSets
		cert.CasesCovered += staleSets
		if ctrl.slack < cert.WorstSlack {
			cert.WorstSlack = ctrl.slack
			cert.WorstLink = c.linkName(ctrl.slackLink)
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
				cert.WorstLink = c.linkName(l.ID)
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
	for i := range c.physOf {
		c.physOf[i] = -1
	}
	for _, l := range net.Links {
		canonical := l.Twin == topology.None || l.ID < l.Twin
		if !canonical || linkDown(l.ID) {
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

	activeP := make([]bool, len(c.phys))
	activeS := make([]bool, len(c.sws))
	c.killP = make([][]kill, len(c.phys))
	c.killS = make([][]kill, len(c.sws))
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
		w := weightsOf(st.Alloc[f])
		fl := cflow{f: f, rate: rate, srcC: srcC, dstC: dstC}
		anyAlive, carrying := false, 0
		for _, t := range ts {
			ct := ctun{w: at(w, t.Index), links: t.Links}
			if len(w) == 0 && len(ts) > 0 {
				// No allocation vector at all: ingress splits uniformly.
				ct.w = 1 / float64(len(ts))
			}
			for _, l := range t.Links {
				pi := c.physOf[l]
				if pi < 0 {
					ct.dead = true
					break
				}
				ct.physC = append(ct.physC, pi)
			}
			if !ct.dead {
				for _, v := range t.Switches[1 : len(t.Switches)-1] {
					si := c.swOf[v]
					if si < 0 {
						ct.dead = true
						break
					}
					ct.midC = append(ct.midC, si)
				}
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
			fl.tuns = append(fl.tuns, ct)
		}
		if anyAlive {
			c.indexKills(&fl, carrying)
			c.flows = append(c.flows, fl)
		}
	}
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
// load-carrying tunnels — its memo slots and mask bits, and enters them in
// the kill lists. A failed endpoint stops a flow as losing every tunnel does.
func (c *checker) indexKills(fl *cflow, carrying int) {
	fl.slot = -1
	if carrying > memoBits {
		return
	}
	fi := len(c.flows)
	fl.slot = c.memoSlots
	c.memoSlots += 1 << carrying
	bit := uint32(1)
	for ti := range fl.tuns {
		t := &fl.tuns[ti]
		if t.dead || t.w <= 0 {
			continue
		}
		t.bit = bit
		for _, pi := range t.physC {
			c.killP[pi] = append(c.killP[pi], kill{fi, bit})
		}
		for _, si := range t.midC {
			c.killS[si] = append(c.killS[si], kill{fi, bit})
		}
		bit <<= 1
	}
	c.killS[fl.srcC] = append(c.killS[fl.srcC], kill{fi, bit - 1})
	c.killS[fl.dstC] = append(c.killS[fl.dstC], kill{fi, bit - 1})
}

func (c *checker) linkName(l topology.LinkID) string {
	lk := c.net.Links[l]
	return c.net.Switches[lk.Src].Name + ">" + c.net.Switches[lk.Dst].Name
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

// searchResult aggregates a data-plane search (exact or adversarial).
type searchResult struct {
	cases int64
	// slack is the worst (smallest) per-case slack; slackLink, slackLinks
	// and slackSws describe where and under which faults. slackLink is −1
	// until some case loads a link.
	slack      float64
	slackLink  int
	slackLinks []int
	slackSws   []int
	worst      *Violation
	aborted    bool
}

// note folds one evaluated case into the running result; returns false
// when the search should stop (fail-fast on a violation).
func (c *checker) note(res *searchResult, cr caseResult, physSel, swSel []int) bool {
	res.cases++
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
			LinkName: c.linkName(cr.overLink),
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

// binomSum is Σ_{i=0..k} C(n, i) in float64 (the counts get astronomical;
// the caller only compares against thresholds or saturates to int64).
func binomSum(n, k int) float64 {
	if k > n {
		k = n
	}
	total := 0.0
	term := 1.0
	for i := 0; i <= k; i++ {
		total += term
		term = term * float64(n-i) / float64(i+1)
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
