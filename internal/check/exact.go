package check

import (
	"math"
	"sort"
	"sync/atomic"

	"ffc/internal/core"
	"ffc/internal/parallel"
	"ffc/internal/topology"
)

// parallelMinCases is the enumeration size below which exactData stays on
// the calling goroutine: workers, each with a memo to fill, cost more.
const parallelMinCases = 4096

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
	evals := make([]*evaluator, workers)
	var firstBad atomic.Int64
	firstBad.Store(int64(len(shards)))

	parallel.ForEachWorker(len(shards), workers, func(worker, k int) {
		if evals[worker] == nil {
			evals[worker] = c.newEvaluator()
		}
		e, res := evals[worker], &results[k]
		*res = searchResult{slack: math.Inf(1), slackLink: -1}
		sh := shards[k]
		physSel, swSel := make([]int, 0, sh.size), make([]int, 0, kv)
		prefix := make([]int, 0, sh.size)
		if sh.size > 0 {
			prefix = append(prefix, sh.first)
		}
		combos(prefix, sh.first+1, n, sh.size-len(prefix), func(ps []int) bool {
			if int64(k) > firstBad.Load() {
				return false
			}
			physSel = physSel[:0]
			for _, i := range ps {
				physSel = append(physSel, c.activeP[i])
			}
			return combosUpTo(len(c.activeS), kv, func(ss []int) bool {
				swSel = swSel[:0]
				for _, i := range ss {
					swSel = append(swSel, c.activeS[i])
				}
				return c.note(res, e.eval(physSel, swSel), physSel, swSel)
			})
		})
		for res.aborted {
			if cur := firstBad.Load(); int64(k) >= cur || firstBad.CompareAndSwap(cur, int64(k)) {
				break
			}
		}
	})

	res := searchResult{slack: math.Inf(1), slackLink: -1}
	last := min(int(firstBad.Load()), len(shards)-1)
	for _, r := range results[:last+1] {
		res.cases += r.cases
		if r.slackLink >= 0 && r.slack < res.slack {
			res.slack, res.slackLink = r.slack, r.slackLink
			res.slackLinks, res.slackSws = r.slackLinks, r.slackSws
		}
		if r.worst != nil && (res.worst == nil || r.worst.Over > res.worst.Over) {
			res.worst = r.worst
		}
		res.aborted = r.aborted
	}
	return res
}

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
