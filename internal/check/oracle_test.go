package check

// The differential oracle: the per-case evaluator and serial enumerator this
// package shipped before the memoised, sharded ones, kept verbatim (own
// scratch, own combination generator, math.Max tolerance). It walks every
// tunnel of every flow for every case, so it is slow and obviously right;
// the production evaluator must reproduce its results bit for bit.

import (
	"math"
	"math/rand"
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

// eval adapts evalData to the signature adversarialData drives.
func (o *oracle) eval(physSel, swSel []int) caseResult {
	for _, pi := range physSel {
		o.downP[pi] = true
	}
	for _, si := range swSel {
		o.downS[si] = true
	}
	cr := o.evalData(o.downP, o.downS)
	for _, pi := range physSel {
		o.downP[pi] = false
	}
	for _, si := range swSel {
		o.downS[si] = false
	}
	return cr
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
	o := newOracle(c)
	if exact := c.wantExact(); exact {
		return c.certificate(o.exactData(), exact, prev), nil
	}
	return c.certificate(c.adversarialData(rand.New(rand.NewSource(c.p.Seed)), o.eval), false, prev), nil
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
