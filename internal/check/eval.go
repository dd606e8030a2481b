package check

import (
	"math"
	"slices"
	"sync"

	"ffc/internal/topology"
)

// contrib is one tunnel's load on one of its links.
type contrib struct {
	load float64
	link topology.LinkID
}

// span locates one memo entry in an evaluator's arena; off 0 is unfilled.
type span struct{ off, end int }

// evaluator computes the link loads of one fault case at a time, or one
// node's load bounds; it is one goroutine's. A flow's loads depend only on
// which of its tunnels died, so rate·w/total is computed once per distinct
// dead-tunnel mask, on first use, and a case is a gather-add of memo
// entries in flow → tunnel → link order: the order, hence the
// floating-point sums, of evaluating every flow afresh.
type evaluator struct {
	c       *checker
	loads   []float64
	touched []topology.LinkID
	// mask is each flow's dead-tunnel mask under the case being evaluated.
	mask []uint32
	// tab holds one span per (flow, mask) into arena (element 0 a dummy so
	// no entry starts at 0): loads, then, on first use, node bounds per link
	// budget r = 0..ke. alive, wide and the fields after them are scratch.
	tab    []span
	arena  []contrib
	alive  []bool
	wide   []contrib
	across []uint32
	kw     []float64
	hit    []int
	top    []float64
}

// evaluators recycles evaluators, memo table, arena, loads and scratch
// included, so a certification allocates none of them once warm.
var evaluators = sync.Pool{New: func() any { return new(evaluator) }}

// newEvaluator returns an evaluator over c from the pool; release returns
// it there.
func (c *checker) newEvaluator() *evaluator {
	e := evaluators.Get().(*evaluator)
	e.bind(c)
	return e
}

// bind points e at the index c with every load, mask and memo entry clear,
// keeping its arrays.
func (e *evaluator) bind(c *checker) {
	e.c = c
	e.loads = zeroed(e.loads, len(c.cap))
	e.mask = zeroed(e.mask, len(c.flows))
	e.kw = zeroed(e.kw, max(len(c.phys), len(c.sws)))
	e.tab, e.touched = e.tab[:0], e.touched[:0]
	e.arena = append(e.arena[:0], contrib{})
}

// release returns e to the pool; e must not be used after.
func (e *evaluator) release() {
	e.c = nil
	evaluators.Put(e)
}

// zeroed returns s resized to n zeros, over its own array when that is
// large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// restrict returns an index whose evaluators load only the links keep
// marks: it holds the flows whose carrying tunnels cross one, with every
// tunnel (the survivors' weight total needs them all) listing only its kept
// links, and kill lists over those flows. A kept link receives the same
// additions in the same order as under c, so its sum and its first touch
// relative to the other kept links are unchanged.
func (c *checker) restrict(keep []bool) *checker {
	r := *c
	var nTun, nHop int
	for _, fl := range c.flows {
		nTun += len(fl.tuns)
		for _, t := range fl.tuns {
			nHop += len(t.links)
		}
	}
	r.flows, r.memoSlots = make([]cflow, 0, len(c.flows)), 0
	tuns, links := make([]ctun, 0, nTun), make([]topology.LinkID, 0, nHop)
	for _, fl := range c.flows {
		first, hops := len(tuns), len(links)
		loads, carrying := false, 0
		for _, t := range fl.tuns {
			from := len(links)
			for _, l := range t.links {
				if keep[l] {
					links = append(links, l)
				}
			}
			t.links = links[from:len(links):len(links)]
			if !t.dead && t.w > 0 {
				carrying++
				loads = loads || len(t.links) > 0
			}
			tuns = append(tuns, t)
		}
		if !loads {
			tuns, links = tuns[:first], links[:hops]
			continue
		}
		fl.tuns = tuns[first:len(tuns):len(tuns)]
		r.indexKills(&fl, carrying)
		r.flows = append(r.flows, fl)
	}
	r.indexKillLists()
	return &r
}

// eval computes every link's load with the candidate links physSel and
// switches swSel failed: each flow's rate is split over its surviving
// tunnels in proportion to the installed weights (ingress rescaling); flows
// with a failed endpoint, and flows with no surviving positive weight, send
// nothing.
func (e *evaluator) eval(physSel, swSel []int) caseResult {
	c := e.c
	e.gather(physSel, swSel, -1)
	res := caseResult{slack: math.Inf(1), slackLink: -1, overLink: -1}
	for _, l := range e.touched {
		load := e.loads[l]
		e.loads[l] = 0
		cp := c.cap[l]
		s := cp - load
		if s < res.slack {
			res.slack = s
			res.slackLink = l
		}
		if s < 0 && load-cp > c.tol[l] {
			if over := load - cp; over > res.over {
				res.over = over
				res.overLink = l
				res.load, res.cp = load, cp
			}
		}
	}
	e.touched = e.touched[:0]
	return res
}

// margin is the least slack the Lemma-1 bound of the node that fails the
// links physSel, with r more links and ≤ kv switches to fail, leaves any
// loaded link in the cases below it (+Inf when it loads none): the node is
// dismissed at a threshold below it.
func (e *evaluator) margin(physSel []int, r int) float64 {
	e.gather(physSel, nil, r)
	m := math.Inf(1)
	for _, l := range e.touched {
		m = min(m, e.c.cap[l]-bounded(e.loads[l], e.c.cap[l]))
		e.loads[l] = 0
	}
	e.touched = e.touched[:0]
	return m
}

// gather adds every flow's loads under the case that fails physSel and
// swSel into e.loads, listing first touches in e.touched — or, for r ≥ 0,
// its bounds over the cases below with r more links and ≤ kv switches to
// fail, which spare at most the tunnels this case spares.
func (e *evaluator) gather(physSel, swSel []int, r int) {
	c := e.c
	for _, pi := range physSel {
		for _, k := range c.killP[pi] {
			e.mask[k.flow] |= k.mask
		}
	}
	for _, si := range swSel {
		for _, k := range c.killS[si] {
			e.mask[k.flow] |= k.mask
		}
	}
	layer := (r + 1) * c.memoSlots
	if n := layer + c.memoSlots; len(e.tab) < n {
		// Grow with unfilled entries, over old ones a previous index left.
		if cap(e.tab) >= n {
			clear(e.tab[len(e.tab):n])
			e.tab = e.tab[:n]
		} else {
			e.tab = append(e.tab, make([]span, n-len(e.tab))...)
		}
	}
	tab, loads, touched := e.tab[layer:], e.loads, e.touched
	for fi := range c.flows {
		var ents []contrib
		if slot := c.flows[fi].slot; slot < 0 {
			ents = e.wideLoads(&c.flows[fi], physSel, swSel, r)
		} else {
			m := e.mask[fi]
			e.mask[fi] = 0
			if sp := tab[slot+int(m)]; sp.off != 0 {
				ents = e.arena[sp.off:sp.end]
			} else {
				ents = e.fill(fi, m, r, layer+slot+int(m))
			}
		}
		for _, ct := range ents {
			if loads[ct.link] == 0 {
				touched = append(touched, ct.link)
			}
			loads[ct.link] += ct.load
		}
	}
	e.touched = touched
}

// fill computes and memoises at tab[key] flow fi's contributions under
// dead-tunnel mask m.
func (e *evaluator) fill(fi int, m uint32, r, key int) []contrib {
	fl := &e.c.flows[fi]
	e.alive = e.alive[:0]
	for ti := range fl.tuns {
		e.alive = append(e.alive, fl.tuns[ti].bit&^m != 0)
	}
	off := len(e.arena)
	e.arena = e.spread(fl, r, e.arena)
	e.tab[key] = span{off, len(e.arena)}
	return e.arena[off:]
}

// wideLoads evaluates a flow too wide for the memo by walking its tunnels.
func (e *evaluator) wideLoads(fl *cflow, physSel, swSel []int, r int) []contrib {
	if meets(swSel, []int{fl.srcC, fl.dstC}) {
		return nil
	}
	e.alive = e.alive[:0]
	for ti := range fl.tuns {
		t := &fl.tuns[ti]
		e.alive = append(e.alive, t.w > 0 && !t.dead && !meets(t.physC, physSel) && !meets(t.midC, swSel))
	}
	e.wide = e.spread(fl, r, e.wide[:0])
	return e.wide
}

// meets reports whether the short lists a and b share an element.
func meets(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// bound appends, per link l the alive tunnels cross with weight W_l, the
// most load the flow puts on l in any case that fails r more links and ≤ kv
// switches: rate·min(1, W_l/D_l), or rate when D_l ≤ 0. D_l = W − lose_l −
// 1e-12·W (1e-12·W given up to rounding) is the least alive weight left,
// lose_l summing the r heaviest link and kv heaviest switch kill weights
// over the alive tunnels that avoid l: killing a tunnel across l only
// lowers l's share, and no r links and kv switches kill more of the rest.
func (e *evaluator) bound(fl *cflow, r int, out []contrib) []contrib {
	var w float64
	off, across := len(out), e.across[:0]
	for ti := range fl.tuns {
		if !e.alive[ti] {
			continue
		}
		t := &fl.tuns[ti]
		w += t.w
		for _, l := range t.links {
			if j := slices.IndexFunc(out[off:], func(ct contrib) bool { return ct.link == l }); j >= 0 {
				out[off+j].load += t.w
				across[j] |= t.bit
			} else {
				out = append(out, contrib{t.w, l})
				across = append(across, t.bit)
			}
		}
	}
	lose := 0.0
	for j := off; j < len(out); j++ {
		// across holds the bits of the tunnels across each link: a link
		// crossed by the same tunnels as the one before it (in a flow
		// narrow enough to have bits) shares its lose.
		if j == off || fl.slot < 0 || across[j-off] != across[j-off-1] {
			lose = e.lose(fl, out[j].link, r)
		}
		share := 1.0
		if d := w - lose - 1e-12*w; d > 0 {
			share = min(1, out[j].load/d)
		}
		out[j].load = fl.rate * share
	}
	e.across = across
	return out
}

// lose sums the r largest link and kv largest switch kill weights over the
// alive tunnels of fl that avoid link l.
func (e *evaluator) lose(fl *cflow, l topology.LinkID, r int) (lose float64) {
	for k, n := range [2]int{r, e.c.p.Prot.Kv} { // links, then switches
		if n == 0 {
			continue
		}
		hit, top := e.hit[:0], e.top[:0] // top: the n largest, descending
		for ti := range fl.tuns {
			if t := &fl.tuns[ti]; e.alive[ti] && !slices.Contains(t.links, l) {
				for _, i := range [2][]int{t.physC, t.midC}[k] {
					if e.kw[i] == 0 {
						hit = append(hit, i)
					}
					e.kw[i] += t.w
				}
			}
		}
		for _, i := range hit {
			if v := e.kw[i]; len(top) < n || v > top[n-1] {
				if len(top) < n {
					top = append(top, 0)
				}
				p := len(top) - 1
				for ; p > 0 && top[p-1] < v; p-- {
					top[p] = top[p-1]
				}
				top[p] = v
			}
			e.kw[i] = 0
		}
		for _, v := range top {
			lose += v
		}
		e.hit, e.top = hit, top
	}
	return lose
}

// spread appends flow fl's link loads, in tunnel → link order, when exactly
// the tunnels e.alive marks (all of positive weight) survive — or, for
// r ≥ 0, their bounds.
func (e *evaluator) spread(fl *cflow, r int, out []contrib) []contrib {
	if r >= 0 {
		return e.bound(fl, r, out)
	}
	alive := e.alive
	var total float64
	for ti := range fl.tuns {
		if alive[ti] {
			total += fl.tuns[ti].w
		}
	}
	if total <= 0 {
		return out // blackhole: no survivors carry anything
	}
	for ti := range fl.tuns {
		if !alive[ti] {
			continue
		}
		t := &fl.tuns[ti]
		load := fl.rate * t.w / total
		for _, l := range t.links {
			out = append(out, contrib{load, l})
		}
	}
	return out
}
