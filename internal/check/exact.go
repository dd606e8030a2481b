package check

import (
	"math"
	"slices"
	"sort"

	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
)

// The links and flows each exact certification's index kept, and the
// cases it evaluated rather than dismissed by a node bound.
var obsLinksKept, obsFlowsKept = obs.NewValueHistogram("check.links_kept"), obs.NewValueHistogram("check.flows_kept")
var obsCasesEvaluated = obs.NewValueHistogram("check.cases_evaluated")

// obsProbed counts the certifications whose threshold came from
// Params.Probe rather than the greedy search.
var obsProbed = obs.NewCounter("check.probed")

// exactData enumerates every combination of ≤ ke active physical-link
// failures × ≤ kv active switch failures and evaluates the rescaled loads.
// Dominance covers the rest of the space: failing a link no positive-weight
// tunnel uses changes nothing (a zero-weight tunnel's death doesn't alter
// the surviving-weight total), and failing a switch that is only ever a
// flow endpoint removes those flows' load from every link without shifting
// anyone else's, so any combination containing inert elements behaves
// exactly like its active-only projection — which is enumerated.
//
// The order is link sets by size then lexicographically, under each the
// switch sets likewise: the empty link set, then per size every first link
// with all sets that start with it. One running result folds the cases in
// that order with note's strict comparisons, and the walk returns at the
// first FailFast violation. It runs over the links prune keeps, skipping
// every subtree a node bound dismisses at a threshold that folds in the
// worst slack so far; the certificate is bitwise the unpruned one.
func (c *checker) exactData() searchResult {
	ke, kv, n := c.p.Prot.Ke, c.p.Prot.Kv, len(c.activeP)
	// t is the node bounds' threshold, ≥ 0, or −1 with bounds off; prune
	// leaves e bound to idx.
	e := c.newEvaluator()
	defer e.release()
	idx, links, t := c.prune(e)
	swCases := int64(binomSum(len(c.activeS), kv))
	res := searchResult{slack: math.Inf(1), slackLink: -1}
	swSel := make([]int, 0, kv)
	// head[x] is the margin of the head node ({x}, ke−1), NaN until needed.
	// Its bound covers every case that fails candidate link x, so a node
	// that fails x is dismissed when head[x] clears the threshold. A node's
	// own bound is never looser than a head's (bounds never grow down the
	// tree), so the heads dismiss the same nodes, with fewer gathers.
	head := make([]float64, len(c.phys))
	for i := range head {
		head[i] = math.NaN()
	}
	dismissed := func(physSel []int, r int, thr float64) bool {
		for _, x := range physSel {
			if math.IsNaN(head[x]) {
				head[x] = e.margin([]int{x}, ke-1)
			}
			if head[x] > thr {
				return true
			}
		}
		own := len(physSel) == 1 && r == ke-1 // a head node: its margin is head's
		return !own && e.margin(physSel, r) > thr
	}
	// walk enumerates the node physSel, whose last link has position a,
	// with r more links to fail: it skips the node's C(n−a−1, r) link sets
	// × swCases switch sets when a bound proves every loaded link's
	// slack > max(min(t, res.slack), 0).
	var walk func(physSel []int, a, r int) bool
	walk = func(physSel []int, a, r int) bool {
		if cases := int64(binom(n-a-1, r)) * swCases; t >= 0 && cases >= 2 &&
			dismissed(physSel, r, max(min(t, res.slack), 0)) {
			res.cases += cases
			return true
		}
		if r > 0 {
			for i := a + 1; i <= n-r; i++ {
				if !walk(append(physSel, c.activeP[i]), i, r-1) {
					return false
				}
			}
			return true
		}
		return combosUpTo(len(c.activeS), kv, func(ss []int) bool {
			swSel = swSel[:0]
			for _, i := range ss {
				swSel = append(swSel, c.activeS[i])
			}
			return c.note(&res, e.eval(physSel, swSel), physSel, swSel)
		})
	}
	physSel := make([]int, 0, ke)
	cont := walk(physSel, -1, 0)
	for size := 1; cont && size <= min(ke, n); size++ {
		for first := 0; cont && first <= n-size; first++ {
			cont = walk(append(physSel, c.activeP[first]), first, size-1)
		}
	}
	res.linksKept, res.flowsKept = links, len(idx.flows)
	return res
}

// prune returns the index exactData walks at every protection level, how
// many links it keeps and its threshold T = max(S, 0), S being the worst
// slack of the in-space cases it evaluates in full — the no-fault case and
// p.Probe when the probe is in the certified space, else greedy's — so
// S ≥ the final worst slack S*. It keeps the links whose root node bound
// (no link failed yet, ke to go) comes within T of capacity. A dropped link
// has slack > T in every case: it can neither attain S* (nor tie it) nor
// overload, and under FailFast the prefix minimum at the first violation is
// < 0 ≤ T. T is −1 (bounds off, c returned whole) when a tunnel repeats a
// link: min(1, ·) in the bound fails. prune evaluates on e, which it leaves
// bound to the index it returns.
func (c *checker) prune(e *evaluator) (*checker, int, float64) {
	if !c.boundable() {
		return c, len(c.cap), -1
	}
	s := math.Inf(1)
	if physSel, swSel, ok := c.probe(); ok {
		obsProbed.Inc()
		s = min(e.eval(nil, nil).slack, e.eval(physSel, swSel).slack)
	} else {
		c.greedy(func(physSel, swSel []int) (caseResult, bool) {
			cr := e.eval(physSel, swSel)
			s = min(s, cr.slack)
			return cr, s > 0 // T is 0 from here on
		})
	}
	t := max(s, 0)
	e.gather(nil, nil, c.p.Prot.Ke)
	keep, kept := make([]bool, len(c.cap)), 0
	for l, u := range e.loads {
		if keep[l] = !(c.cap[l]-bounded(u, c.cap[l]) > t); keep[l] {
			kept++
		}
	}
	idx := c.restrict(keep)
	e.bind(idx)
	return idx, kept, t
}

// probe maps p.Probe to candidate indexes, dropping the elements already
// down and repeats. ok is false without a probe, and when the probe names
// an element the network lacks or more than ke links or kv switches: such
// a case is outside the certified space, and its slack may lie below S*.
func (c *checker) probe() (physSel, swSel []int, ok bool) {
	fs := c.p.Probe
	if fs == nil {
		return nil, nil, false
	}
	for _, l := range fs.Links {
		if int(l) < 0 || int(l) >= len(c.physOf) {
			return nil, nil, false
		}
		if pi := c.physOf[l]; pi >= 0 && !slices.Contains(physSel, pi) {
			physSel = append(physSel, pi)
		}
	}
	for _, v := range fs.Switches {
		if int(v) < 0 || int(v) >= len(c.swOf) {
			return nil, nil, false
		}
		if si := c.swOf[v]; si >= 0 && !slices.Contains(swSel, si) {
			swSel = append(swSel, si)
		}
	}
	ok = len(physSel) <= c.p.Prot.Ke && len(swSel) <= c.p.Prot.Kv
	return physSel, swSel, ok
}

// greedy is prune's probe: it evaluates the no-fault case, then grows one
// fault set by repeatedly failing whichever single additional active
// element leaves the worst residual slack, up to ke links and kv switches.
// It passes every case to eval and stops when eval returns false. eval's
// slices are reused.
func (c *checker) greedy(eval func(physSel, swSel []int) (caseResult, bool)) {
	ke, kv := c.p.Prot.Ke, c.p.Prot.Kv
	curP, curS := make([]int, 0, ke), make([]int, 0, kv)
	if _, cont := eval(curP, curS); !cont {
		return
	}
	inP := make([]bool, len(c.phys))
	inS := make([]bool, len(c.sws))
	for len(curP) < min(ke, len(c.activeP)) || len(curS) < min(kv, len(c.activeS)) {
		bestSlack := math.Inf(1)
		bestIdx, bestIsSwitch := -1, false
		if len(curP) < ke {
			for _, pi := range c.activeP {
				if inP[pi] {
					continue
				}
				cr, cont := eval(append(curP, pi), curS)
				if !cont {
					return
				}
				if cr.slack < bestSlack {
					bestSlack, bestIdx, bestIsSwitch = cr.slack, pi, false
				}
			}
		}
		if len(curS) < kv {
			for _, si := range c.activeS {
				if inS[si] {
					continue
				}
				cr, cont := eval(curP, append(curS, si))
				if !cont {
					return
				}
				if cr.slack < bestSlack {
					bestSlack, bestIdx, bestIsSwitch = cr.slack, si, true
				}
			}
		}
		if bestIdx < 0 {
			break
		}
		if bestIsSwitch {
			curS = append(curS, bestIdx)
			inS[bestIdx] = true
		} else {
			curP = append(curP, bestIdx)
			inP[bestIdx] = true
		}
	}
}

// boundable reports whether node bounds hold: min(1, ·) in them fails when
// a carrying tunnel repeats a link.
func (c *checker) boundable() bool {
	for _, fl := range c.flows {
		for _, t := range fl.tuns {
			for i, l := range t.links {
				if !t.dead && t.w > 0 && slices.Contains(t.links[:i], l) {
					return false
				}
			}
		}
	}
	return true
}

// bounded adds the bound's rounding margin, far above the evaluator's
// (≈ 1e-13 relative), to a bound sum u on a link of capacity cp.
func bounded(u, cp float64) float64 { return u*(1+1e-9) + 1e-12*max(1, cp) }

// combos calls fn with sel extended by every k-combination of the indexes
// [lo, n), in lexicographic order. fn returns false to stop; combos then
// returns false. The slice passed to fn is reused — copy it to keep it.
func combos(sel []int, lo, n, k int, fn func([]int) bool) bool {
	if k == 0 {
		return fn(sel)
	}
	for i := lo; i <= n-k; i++ {
		if !combos(append(sel, i), i+1, n, k-1, fn) {
			return false
		}
	}
	return true
}

// combosUpTo calls fn with every index combination of size 0..k over
// [0, n), smallest size first, lexicographic within a size, under combos'
// contract.
func combosUpTo(n, k int, fn func([]int) bool) bool {
	sel := make([]int, 0, k)
	for size := 0; size <= min(k, n); size++ {
		if !combos(sel, 0, n, size, fn) {
			return false
		}
	}
	return true
}

// controlResult is the control-plane certification outcome.
type controlResult struct {
	// cases counts evaluated links; sources is the number of distinct
	// ingresses a stale set can be drawn from.
	cases   int64
	sources int
	// slack is min(cap − worst-case load) over evaluated links.
	slack      float64
	slackLink  topology.LinkID
	slackStale []topology.SwitchID
	worst      *Violation
}

// certifyControl verifies the control-plane guarantee exactly without
// enumerating stale sets: per flow and tunnel the adversary's best stale
// behavior is max(old behavior, new behavior) under the rate-limiter mode
// (the same upper bound the paper's Eqn 14 budget covers), so per link the
// worst choice of ≤ kc stale ingresses is simply the kc largest positive
// (stale − updated) contribution deltas. That top-kc selection equals the
// maximum over all C(n, ≤kc) stale sets — dominance collapses the
// enumeration entirely.
func (c *checker) certifyControl(prev *core.State) controlResult {
	res := controlResult{slack: math.Inf(1), slackLink: -1}

	// perLink[l][src] is what candidate switch src's flows put on link l,
	// updated and stale; dense and summed in ascending source order below,
	// so the certificate does not depend on map iteration order.
	type stake struct {
		newL, staleL float64
	}
	perLink := make([][]stake, len(c.net.Links))
	srcSeen := make([]bool, len(c.sws))

	for _, f := range c.set.All() {
		if c.swOf[f.Src] < 0 || c.swOf[f.Dst] < 0 {
			continue // an endpoint is already down: nothing is sent
		}
		src := c.swOf[f.Src]
		if !srcSeen[src] {
			srcSeen[src] = true
			res.sources++
		}
		alloc := c.st.Alloc[f]
		oldAlloc := prev.Alloc[f]
		oldW := weightsOf(nil, oldAlloc)
		newW := weightsOf(nil, alloc)
		for _, t := range c.set.Tunnels(f) {
			if c.tunBaseDead(t.Links, t.Switches) {
				continue
			}
			a := at(alloc, t.Index)
			var stale float64
			switch c.p.RateLimiter {
			case core.LimitersOrdered:
				stale = math.Max(at(oldAlloc, t.Index), a)
			case core.LimitersIndependent:
				stale = math.Max(math.Max(at(oldAlloc, t.Index), a),
					math.Max(at(oldW, t.Index)*c.st.Rate[f],
						at(newW, t.Index)*prev.Rate[f]))
			default: // LimitersSynced: old weights split the new rate
				stale = math.Max(at(oldW, t.Index)*c.st.Rate[f], a)
			}
			if a == 0 && stale == 0 {
				continue
			}
			for _, l := range t.Links {
				if perLink[l] == nil {
					perLink[l] = make([]stake, len(c.sws))
				}
				perLink[l][src].newL += a
				perLink[l][src].staleL += stale
			}
		}
	}

	type delta struct {
		src topology.SwitchID
		d   float64
	}
	var deltas []delta
	for li, stakes := range perLink {
		if stakes == nil {
			continue
		}
		l := topology.LinkID(li)
		res.cases++
		var base float64
		deltas = deltas[:0]
		for src, sk := range stakes {
			base += sk.newL
			if d := sk.staleL - sk.newL; d > 0 {
				deltas = append(deltas, delta{c.sws[src], d})
			}
		}
		sort.Slice(deltas, func(i, j int) bool {
			if deltas[i].d != deltas[j].d {
				return deltas[i].d > deltas[j].d
			}
			return deltas[i].src < deltas[j].src
		})
		load := base
		var stale []topology.SwitchID
		for i := 0; i < len(deltas) && i < c.p.Prot.Kc; i++ {
			load += deltas[i].d
			stale = append(stale, deltas[i].src)
		}
		cp := c.cap[l]
		if s := cp - load; s < res.slack {
			res.slack = s
			res.slackLink = l
			res.slackStale = sortedStale(stale)
		}
		if load-cp > c.tol[l] {
			if over := load - cp; res.worst == nil || over > res.worst.Over {
				res.worst = &Violation{
					Plane:    "control",
					Link:     l,
					LinkName: c.net.LinkName(l),
					Load:     load,
					Capacity: cp,
					Over:     over,
					Faults:   c.faultSet(nil, nil, sortedStale(stale)),
				}
			}
		}
	}
	return res
}

// tunBaseDead reports whether a tunnel crosses a pre-down element.
func (c *checker) tunBaseDead(links []topology.LinkID, switches []topology.SwitchID) bool {
	for _, l := range links {
		if c.physOf[l] < 0 {
			return true
		}
	}
	for _, v := range switches {
		if c.swOf[v] < 0 {
			return true
		}
	}
	return false
}
