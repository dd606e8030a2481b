// Template cache for partial bubble networks.
//
// The comparator sequence of a partial sort depends only on (direction, N,
// M) — never on the input expressions — so deriving it symbolically once
// and stamping the recorded operations per call removes the per-encoding
// wire bookkeeping and fmt.Sprintf name construction from the hot
// model-build path. Stamping replays the exact derivation, so the emitted
// variables, names, and constraint rows are byte-identical to the original
// direct construction with the cache on or off.
package sortnet

import (
	"fmt"
	"sync"

	"ffc/internal/lp"
	"ffc/internal/obs"
)

var (
	obsCacheHits   = obs.NewCounter("sortnet.cache.hits")
	obsCacheMisses = obs.NewCounter("sortnet.cache.misses")
)

// netKey identifies one memoized network: the kind of network (largest-M
// vs smallest-M partial bubble) and its dimensions.
type netKey struct {
	largest bool
	n, m    int
}

// netOp is one recorded compare-swap: wire ids x, y are inputs (0..n-1) or
// auxiliary wires (n+j = j-th auxiliary created during the stamp, in
// creation order: each op appends its hi then lo wire).
type netOp struct {
	x, y   int32
	suffix string // variable-name suffix ".p<pass>.c<i>" (pre-rendered)
}

// netTemplate is a fully derived partial bubble network, ready to stamp.
type netTemplate struct {
	n, m int
	ops  []netOp
	// tailWire/tailSuffix describe the single-wire final pass (the wire is
	// its own extremum and is bound to a fresh variable); tailWire is -1
	// when every pass ran a full comparator chain.
	tailWire    int32
	tailSuffix  string
	ranked      []int32 // wire id per rank, in rank order
	comparators int
}

var netCache struct {
	sync.RWMutex
	enabled bool
	m       map[netKey]*netTemplate
}

func init() {
	netCache.enabled = true
	netCache.m = make(map[netKey]*netTemplate)
}

// SetCache enables or disables template memoization. Disabling also drops
// the cached templates; stamping still goes through the same derive+stamp
// path, so emitted models are identical either way. Intended for tests and
// A/B benchmarks.
func SetCache(on bool) {
	netCache.Lock()
	defer netCache.Unlock()
	netCache.enabled = on
	netCache.m = make(map[netKey]*netTemplate)
}

// CacheLen returns the number of memoized network templates.
func CacheLen() int {
	netCache.RLock()
	defer netCache.RUnlock()
	return len(netCache.m)
}

// CacheCounters returns the process-lifetime template cache hit and miss
// totals (also published as obs counters sortnet.cache.hits/misses).
func CacheCounters() (hits, misses int64) {
	return obsCacheHits.Value(), obsCacheMisses.Value()
}

// templateFor returns the memoized template for (largest, n, m), deriving
// it on first use. Callers must have clamped m to [1, n].
func templateFor(largest bool, n, m int) *netTemplate {
	key := netKey{largest: largest, n: n, m: m}
	netCache.RLock()
	t, ok := netCache.m[key]
	enabled := netCache.enabled
	netCache.RUnlock()
	if ok {
		obsCacheHits.Inc()
		return t
	}
	obsCacheMisses.Inc()
	t = deriveTemplate(n, m)
	if enabled {
		netCache.Lock()
		if prev, ok := netCache.m[key]; ok {
			t = prev // lost a race; both derivations are identical
		} else {
			netCache.m[key] = t
		}
		netCache.Unlock()
	}
	return t
}

// deriveTemplate runs the partial bubble sort (Algorithms 1 and 2 of the
// paper) symbolically over wire ids, recording the compare-swap sequence.
// This is the same traversal the pre-cache code performed directly on LP
// expressions; stamp replays it verbatim.
func deriveTemplate(n, m int) *netTemplate {
	t := &netTemplate{n: n, m: m, tailWire: -1}
	wires := make([]int32, n)
	for i := range wires {
		wires[i] = int32(i)
	}
	aux := int32(n)
	for pass := 0; pass < m; pass++ {
		if len(wires) == 1 {
			// Single wire left: it is its own extremum; bind it to a
			// fresh variable to keep the Ranked contract (one var/rank).
			t.tailWire = wires[0]
			t.tailSuffix = fmt.Sprintf(".y%d", pass)
			t.ranked = append(t.ranked, aux)
			break
		}
		// One bubble pass: a chain of compare-swaps carries the running
		// extremum through the array; the losers feed the next pass.
		cur := wires[0]
		losers := make([]int32, 0, len(wires)-1)
		for i := 1; i < len(wires); i++ {
			t.ops = append(t.ops, netOp{x: cur, y: wires[i], suffix: fmt.Sprintf(".p%d.c%d", pass, i)})
			cur = aux
			losers = append(losers, aux+1)
			aux += 2
		}
		t.comparators += len(wires) - 1
		t.ranked = append(t.ranked, cur)
		wires = losers
	}
	return t
}

// stamp emits the recorded network into m over the given input expressions.
// Auxiliary wires are materialized in recording order, so variable creation,
// names, and constraint rows match the original direct construction exactly.
func (t *netTemplate) stamp(m *lp.Model, exprs []*lp.Expr, name string, largest bool) Result {
	res := Result{Sum: lp.NewExpr(), Comparators: t.comparators}
	aux := make([]*lp.Expr, 0, 2*len(t.ops)+1)
	wire := func(w int32) *lp.Expr {
		if w < int32(t.n) {
			return exprs[w]
		}
		return aux[w-int32(t.n)]
	}
	for _, op := range t.ops {
		hi, lo := compareSwap(m, wire(op.x), wire(op.y), name+op.suffix, largest)
		aux = append(aux, hi, lo)
		res.Vars += 2
		res.Constraints += 3
	}
	if t.tailWire >= 0 {
		y := m.NewVar(name+t.tailSuffix, negInf(), lp.Inf)
		if largest {
			m.AddGE(lp.NewExpr().Add(1, y).AddExpr(-1, wire(t.tailWire)), 0)
		} else {
			m.AddLE(lp.NewExpr().Add(1, y).AddExpr(-1, wire(t.tailWire)), 0)
		}
		res.Vars++
		res.Constraints++
		aux = append(aux, lp.NewExpr().Add(1, y))
	}
	for _, w := range t.ranked {
		e := wire(w)
		res.Ranked = append(res.Ranked, e)
		res.Sum.AddExpr(1, e)
	}
	return res
}
