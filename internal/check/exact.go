package check

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/parallel"
	"ffc/internal/topology"
)

// parallelMinCases is the enumeration size below which exactData stays on
// the calling goroutine: workers, each with a memo to fill, cost more.
// BenchmarkCertLNet on 2 cores, serial vs two workers (node bounds,
// medians of six): 56 cases (ke1) 0.45 vs 0.52 ms; 935 (ke1kv1) 2.5 vs 1.7
// ms; 1,597 (ke2, 290 evaluated) 1.5 vs 1.7 ms; 25,262 (daemon, 2,159
// evaluated) 5.3 vs 3.7 ms. The crossover lies between 56 and 935 cases
// evaluated; node bounds leave the ke2 size below it.
const parallelMinCases = 256

// The links and flows each exact certification's last shards evaluated,
// and the cases it evaluated rather than dismissed by a node bound.
var obsLinksKept, obsFlowsKept = obs.NewValueHistogram("check.links_kept"), obs.NewValueHistogram("check.flows_kept")
var obsCasesEvaluated = obs.NewValueHistogram("check.cases_evaluated")

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
// switch sets likewise. Workers take shards of it — the empty link set,
// then per size every first link with all sets that start with it — and
// folding the shards' results in shard order with note's strict comparisons
// reproduces the serial scan whatever the worker count. Under FailFast,
// firstBad is the lowest shard known to hold a violation: later shards
// stop, earlier ones finish, and only shards up to it are folded.
// At ke ≥ 2 the shards after the single-link ones evaluate only the links
// prune keeps and skip every subtree a node bound dismisses; the
// certificate is bitwise the unpruned one.
func (c *checker) exactData() searchResult {
	ke, kv, n := c.p.Prot.Ke, c.p.Prot.Kv, len(c.activeP)
	type shard struct{ size, first int }
	shards := []shard{{}}
	for size := 1; size <= min(ke, n); size++ {
		for first := 0; first <= n-size; first++ {
			shards = append(shards, shard{size, first})
		}
	}
	workers := 1
	if c.exactCases() >= parallelMinCases {
		workers = min(parallel.Workers(0), len(shards))
	}
	results := make([]searchResult, len(shards))
	var firstBad atomic.Int64
	firstBad.Store(int64(len(shards)))
	// t becomes prune's threshold, ≥ 0, once node bounds are on.
	swCases, t := int64(binomSum(len(c.activeS), kv)), -1.0

	// run enumerates shards [lo, hi) with evaluators over the index idx.
	run := func(idx *checker, lo, hi int) {
		evals := make([]*evaluator, workers)
		parallel.ForEachWorker(hi-lo, workers, func(worker, j int) {
			if evals[worker] == nil {
				evals[worker] = idx.newEvaluator()
			}
			k := lo + j
			e, res := evals[worker], &results[k]
			*res = searchResult{slack: math.Inf(1), slackLink: -1}
			sh := shards[k]
			swSel := make([]int, 0, kv)
			// walk enumerates the node physSel, whose last link has
			// position a, with r more links to fail: it skips the node's
			// C(n−a−1, r) link sets × swCases switch sets when its bound
			// proves every loaded link's slack > max(min(t, res.slack), 0).
			var walk func(physSel []int, a, r int) bool
			walk = func(physSel []int, a, r int) bool {
				if cases := int64(binom(n-a-1, r)) * swCases; t >= 0 && cases >= 2 &&
					e.dismissed(physSel, r, max(min(t, res.slack), 0)) {
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
				if int64(k) > firstBad.Load() {
					return false
				}
				return combosUpTo(len(c.activeS), kv, func(ss []int) bool {
					swSel = swSel[:0]
					for _, i := range ss {
						swSel = append(swSel, c.activeS[i])
					}
					return c.note(res, e.eval(physSel, swSel), physSel, swSel)
				})
			}
			if physSel := make([]int, 0, sh.size); sh.size == 0 {
				walk(physSel, -1, 0)
			} else {
				walk(append(physSel, c.activeP[sh.first]), sh.first, sh.size-1)
			}
			for res.aborted {
				if cur := firstBad.Load(); int64(k) >= cur || firstBad.CompareAndSwap(cur, int64(k)) {
					break
				}
			}
		})
	}
	split := len(shards)
	if ke >= 2 {
		split = 1 + n
	}
	run(c, 0, split)
	idx, links := c, len(c.cap)
	if split < len(shards) && firstBad.Load() >= int64(split) {
		idx, links, t = c.prune(results[:split])
		run(idx, split, len(shards))
	}

	res := searchResult{slack: math.Inf(1), slackLink: -1}
	last := min(int(firstBad.Load()), len(shards)-1)
	for _, r := range results[:last+1] {
		res.cases += r.cases
		res.evaluated += r.evaluated
		if r.slackLink >= 0 && r.slack < res.slack {
			res.slack, res.slackLink = r.slack, r.slackLink
			res.slackLinks, res.slackSws = r.slackLinks, r.slackSws
		}
		if r.worst != nil && (res.worst == nil || r.worst.Over > res.worst.Over) {
			res.worst = r.worst
		}
		res.aborted = r.aborted
	}
	res.linksKept, res.flowsKept = links, len(idx.flows)
	return res
}

// prune returns the index the shards after head need, how many links it
// keeps and its threshold T = max(S, 0), S being the worst slack of cases
// evaluated in full (head's, and the worst grown by one link), so S ≥ the
// final worst slack S*. It keeps the links whose root node bound (no link
// failed yet, ke to go) comes within T of capacity. A dropped link has
// slack > T in every case: it can neither attain S* (nor tie it) nor
// overload, and under FailFast the prefix minimum at the first violation
// is < 0 ≤ T. T is −1 (bounds off, c returned whole) when a tunnel repeats
// a link: min(1, ·) in the bound fails.
func (c *checker) prune(head []searchResult) (*checker, int, float64) {
	worst := searchResult{slack: math.Inf(1)}
	for _, r := range head {
		if r.slack < worst.slack {
			worst = r
		}
	}
	if !c.indexBounds() {
		return c, len(c.cap), -1
	}
	// One greedy step: the worst case so far with one more link failed
	// tends to come far closer to S*.
	t, e := worst.slack, c.newEvaluator()
	phys := append(slices.Clone(worst.slackLinks), -1)
	for _, pi := range c.activeP {
		phys[len(phys)-1] = pi
		t = min(t, e.eval(phys, worst.slackSws).slack)
	}
	t = max(t, 0)
	e.gather(nil, nil, c.p.Prot.Ke)
	keep, kept := make([]bool, len(c.cap)), 0
	for l, u := range e.loads {
		if keep[l] = !(c.cap[l]-bounded(u, c.cap[l]) > t); keep[l] {
			kept++
		}
	}
	return c.restrict(keep), kept, t
}

// indexBounds gives every flow the weight its node bounds subtract: lose[r]
// sums its r heaviest link and kv heaviest switch kill weights (the
// carrying weight each failure takes, unfailed). It reports false when a
// carrying tunnel repeats a link.
func (c *checker) indexBounds() bool {
	ke, kv, np := c.p.Prot.Ke, c.p.Prot.Kv, len(c.phys)
	kw := make([]float64, np+len(c.sws)) // links, then switches
	var hit []int
	add := func(i int, w float64) {
		if kw[i] == 0 {
			hit = append(hit, i)
		}
		kw[i] += w
	}
	for fi := range c.flows {
		fl := &c.flows[fi]
		hit = hit[:0]
		for _, t := range fl.tuns {
			if t.dead || t.w <= 0 {
				continue
			}
			for i, l := range t.links {
				if slices.Contains(t.links[:i], l) {
					return false
				}
			}
			for _, pi := range t.physC {
				add(pi, t.w)
			}
			for _, si := range t.midC {
				add(np+si, t.w)
			}
		}
		slices.SortFunc(hit, func(i, j int) int { return cmp.Compare(kw[j], kw[i]) })
		fl.lose = make([]float64, ke+1)
		links, sws := 0, 0
		for _, i := range hit {
			switch {
			case i < np && links < ke:
				links++
				fl.lose[links] = kw[i]
			case i >= np && sws < kv:
				sws++
				fl.lose[0] += kw[i]
			}
			kw[i] = 0
		}
		for r := 1; r <= ke; r++ {
			fl.lose[r] += fl.lose[r-1]
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
		oldW := weightsOf(oldAlloc)
		newW := weightsOf(alloc)
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
					LinkName: c.linkName(l),
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
