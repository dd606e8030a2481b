package check

// The differential oracles. For the data plane: the per-case evaluator and
// serial enumerator this package shipped before the memoised, bounded ones,
// kept verbatim (own scratch, own combination generator, math.Max
// tolerance). It walks every tunnel of every flow for every case, so it is
// slow and obviously right; the production evaluator must reproduce its
// results bit for bit. For the control plane: controlOracle, an explicit
// enumeration of stale-switch sets that certifyControl's per-link top-kc
// selection must agree with.

import (
	"math"
	"slices"
	"testing"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

type oracle struct {
	c            *checker
	loads        []float64
	touched      []topology.LinkID
	downP, downS []bool
}

func newOracle(c *checker) *oracle {
	return &oracle{
		c:     c,
		loads: make([]float64, len(c.net.Links)),
		downP: make([]bool, len(c.phys)),
		downS: make([]bool, len(c.sws)),
	}
}

func (o *oracle) evalData(downP, downS []bool) caseResult {
	c := o.c
	res := caseResult{slack: math.Inf(1), slackLink: -1, overLink: -1}
	for fi := range c.flows {
		fl := &c.flows[fi]
		if downS[fl.srcC] || downS[fl.dstC] {
			continue
		}
		var total float64
		for ti := range fl.tuns {
			if tunAlive(&fl.tuns[ti], downP, downS) {
				total += fl.tuns[ti].w
			}
		}
		if total <= 0 {
			continue // blackhole: no survivors carry anything
		}
		for ti := range fl.tuns {
			t := &fl.tuns[ti]
			if t.w <= 0 || !tunAlive(t, downP, downS) {
				continue
			}
			load := fl.rate * t.w / total
			for _, l := range t.links {
				if o.loads[l] == 0 {
					o.touched = append(o.touched, l)
				}
				o.loads[l] += load
			}
		}
	}
	for _, l := range o.touched {
		load := o.loads[l]
		o.loads[l] = 0
		cp := c.cap[l]
		if s := cp - load; s < res.slack {
			res.slack = s
			res.slackLink = l
		}
		if load-cp > 1e-6*math.Max(1, cp) {
			if over := load - cp; over > res.over {
				res.over = over
				res.overLink = l
				res.load, res.cp = load, cp
			}
		}
	}
	o.touched = o.touched[:0]
	return res
}

func tunAlive(t *ctun, downP, downS []bool) bool {
	if t.dead {
		return false
	}
	for _, pi := range t.physC {
		if downP[pi] {
			return false
		}
	}
	for _, si := range t.midC {
		if downS[si] {
			return false
		}
	}
	return true
}

func (o *oracle) exactData() searchResult {
	c := o.c
	res := searchResult{slack: math.Inf(1), slackLink: -1}
	physSel := make([]int, 0, c.p.Prot.Ke)
	swSel := make([]int, 0, c.p.Prot.Kv)

	oracleCombosUpTo(len(c.activeP), c.p.Prot.Ke, func(ps []int) bool {
		physSel = physSel[:0]
		for _, i := range ps {
			o.downP[c.activeP[i]] = true
			physSel = append(physSel, c.activeP[i])
		}
		cont := oracleCombosUpTo(len(c.activeS), c.p.Prot.Kv, func(ss []int) bool {
			swSel = swSel[:0]
			for _, i := range ss {
				o.downS[c.activeS[i]] = true
				swSel = append(swSel, c.activeS[i])
			}
			cr := o.evalData(o.downP, o.downS)
			for _, i := range ss {
				o.downS[c.activeS[i]] = false
			}
			return c.note(&res, cr, physSel, swSel)
		})
		for _, i := range ps {
			o.downP[c.activeP[i]] = false
		}
		return cont
	})
	return res
}

func oracleCombosUpTo(n, k int, fn func([]int) bool) bool {
	if k > n {
		k = n
	}
	sel := make([]int, 0, k)
	var rec func(start, size int) bool
	rec = func(start, size int) bool {
		if len(sel) == size {
			return fn(sel)
		}
		for i := start; i <= n-(size-len(sel)); i++ {
			sel = append(sel, i)
			if !rec(i+1, size) {
				return false
			}
			sel = sel[:len(sel)-1]
		}
		return true
	}
	for size := 0; size <= k; size++ {
		if !rec(0, size) {
			return false
		}
	}
	return true
}

// oracleCertify is Certify with the oracle doing the data-plane search.
func oracleCertify(net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) (*Certificate, error) {
	c, err := prepare(net, set, st, prev, p)
	if err != nil {
		return nil, err
	}
	return c.certificate(newOracle(c).exactData(), prev), nil
}

// requireOracleEqual certifies one plan with the production evaluator and
// with the oracle and fails unless the certificates are bitwise equal.
func requireOracleEqual(tb testing.TB, name string, net *topology.Network, set *tunnel.Set, st, prev *core.State, p Params) *Certificate {
	tb.Helper()
	fast, err := Certify(net, set, st, prev, p)
	if err != nil {
		tb.Fatalf("%s: certify: %v", name, err)
	}
	slow, err := oracleCertify(net, set, st, prev, p)
	if err != nil {
		tb.Fatalf("%s: oracle certify: %v", name, err)
	}
	if !certsEqual(fast, slow) {
		tb.Fatalf("%s: certificate differs from the oracle's\nfast:   %s\n        %+v\noracle: %s\n        %+v",
			name, fast.Summary(), *fast, slow.Summary(), *slow)
	}
	return fast
}

// controlOracle enumerates every set of up to kc ingress switches that keep
// their previous configuration and returns the worst overload, the first in
// enumeration order on ties, or nil. A stale ingress sends on each tunnel
// whichever of its old and new behaviour (per the rate-limiter mode) loads
// it more, a sound upper bound on any realizable mix. Serial, recomputing
// every load per stale set: the reference for certifyControl's per-link
// top-kc selection.
func controlOracle(net *topology.Network, set *tunnel.Set, st, prev *core.State,
	kc int, mode core.RateLimiterMode, capacity map[topology.LinkID]float64) *Violation {

	var srcs []topology.SwitchID
	for _, f := range set.All() {
		if !slices.Contains(srcs, f.Src) {
			srcs = append(srcs, f.Src)
		}
	}
	slices.Sort(srcs)
	var worst *Violation
	stale := map[topology.SwitchID]bool{}
	oracleCombosUpTo(len(srcs), kc, func(sel []int) bool {
		clear(stale)
		for _, i := range sel {
			stale[srcs[i]] = true
		}
		loads := make([]float64, len(net.Links))
		for _, f := range set.All() {
			alloc, oldAlloc := st.Alloc[f], prev.Alloc[f]
			oldW, newW := tunnel.Weights(oldAlloc), st.Weights(f)
			for _, t := range set.Tunnels(f) {
				load := at(alloc, t.Index)
				if stale[f.Src] {
					switch mode {
					case core.LimitersOrdered:
						load = math.Max(at(oldAlloc, t.Index), load)
					case core.LimitersIndependent: // any mix of {old,new} weights × {old,new} rate
						load = math.Max(math.Max(at(oldAlloc, t.Index), load),
							math.Max(at(oldW, t.Index)*st.Rate[f], at(newW, t.Index)*prev.Rate[f]))
					default: // LimitersSynced: old weights split the new rate
						load = math.Max(at(oldW, t.Index)*st.Rate[f], load)
					}
				}
				for _, l := range t.Links {
					loads[l] += load
				}
			}
		}
		for _, l := range net.Links {
			c := l.Capacity
			if o, ok := capacity[l.ID]; ok {
				c = o
			}
			if over := loads[l.ID] - c; over > 1e-6*math.Max(1, c) && (worst == nil || over > worst.Over) {
				worst = &Violation{Plane: "control", Link: l.ID, Load: loads[l.ID], Capacity: c, Over: over}
			}
		}
		return true
	})
	return worst
}
