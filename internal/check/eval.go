package check

import (
	"math"

	"ffc/internal/topology"
)

// contrib is one tunnel's load on one of its links.
type contrib struct {
	load float64
	link topology.LinkID
}

// span locates one memo entry in an evaluator's arena; off 0 is unfilled.
type span struct{ off, end int }

// evaluator computes the link loads of one fault case at a time; it is one
// goroutine's. A flow's loads depend only on which of its tunnels died, so
// rate·w/total is computed once per distinct dead-tunnel mask, on first use,
// and a case is a gather-add of memo entries in flow → tunnel → link order:
// the order, hence the floating-point sums, of evaluating every flow afresh.
type evaluator struct {
	c       *checker
	loads   []float64
	touched []topology.LinkID
	// mask is each flow's dead-tunnel mask under the case being evaluated.
	mask []uint32
	// tab holds one span per (flow, mask) into arena, whose element 0 is a
	// dummy so that no entry starts at 0; alive and wide are scratch.
	tab   []span
	arena []contrib
	alive []bool
	wide  []contrib
}

func (c *checker) newEvaluator() *evaluator {
	return &evaluator{
		c:     c,
		loads: make([]float64, len(c.net.Links)),
		mask:  make([]uint32, len(c.flows)),
		tab:   make([]span, c.memoSlots),
		arena: make([]contrib, 1),
	}
}

// eval computes every link's load with the candidate links physSel and
// switches swSel failed: each flow's rate is split over its surviving
// tunnels in proportion to the installed weights (ingress rescaling); flows
// with a failed endpoint, and flows with no surviving positive weight, send
// nothing.
func (e *evaluator) eval(physSel, swSel []int) caseResult {
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
	for fi := range c.flows {
		var ents []contrib
		if slot := c.flows[fi].slot; slot < 0 {
			ents = e.wideLoads(&c.flows[fi], physSel, swSel)
		} else {
			m := e.mask[fi]
			e.mask[fi] = 0
			if sp := e.tab[slot+int(m)]; sp.off != 0 {
				ents = e.arena[sp.off:sp.end]
			} else {
				ents = e.fill(fi, m)
			}
		}
		for _, ct := range ents {
			if e.loads[ct.link] == 0 {
				e.touched = append(e.touched, ct.link)
			}
			e.loads[ct.link] += ct.load
		}
	}

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

// fill computes and memoises flow fi's link loads under dead-tunnel mask m.
func (e *evaluator) fill(fi int, m uint32) []contrib {
	fl := &e.c.flows[fi]
	e.alive = e.alive[:0]
	for ti := range fl.tuns {
		e.alive = append(e.alive, fl.tuns[ti].bit&^m != 0)
	}
	off := len(e.arena)
	e.arena = fl.spread(e.alive, e.arena)
	e.tab[fl.slot+int(m)] = span{off, len(e.arena)}
	return e.arena[off:]
}

// wideLoads evaluates a flow too wide for the memo by walking its tunnels.
func (e *evaluator) wideLoads(fl *cflow, physSel, swSel []int) []contrib {
	if meets(swSel, []int{fl.srcC, fl.dstC}) {
		return nil
	}
	e.alive = e.alive[:0]
	for ti := range fl.tuns {
		t := &fl.tuns[ti]
		e.alive = append(e.alive, t.w > 0 && !t.dead && !meets(t.physC, physSel) && !meets(t.midC, swSel))
	}
	e.wide = fl.spread(e.alive, e.wide[:0])
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

// spread appends the flow's link loads, in tunnel → link order, when exactly
// the marked tunnels (all of positive weight) survive.
func (fl *cflow) spread(alive []bool, out []contrib) []contrib {
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
