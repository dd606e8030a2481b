package core

import (
	"fmt"

	"ffc/internal/lp"
	"ffc/internal/sortnet"
	"ffc/internal/tunnel"
)

// DemandUncertainty extends FFC to demand faults, the future-work direction
// the paper sketches in §9: in networks without ingress rate control
// (MinMLU-style TE), actual flow rates can exceed predictions. Analogous to
// treating a mispredicted flow as a faulty rate limiter, the TE is made
// robust to ANY combination of up to Count flows each sending up to
// Factor × its predicted demand: since an uncontrolled flow's link load
// scales proportionally with its rate, the extra load a mispredicted flow
// puts on link e is (Factor−1) × its planned load there, and the worst case
// over all misprediction sets is a bounded M-sum — encoded with the same
// partial sorting networks as §4.4.
type DemandUncertainty struct {
	// Count is the number of simultaneously mispredicted flows tolerated.
	Count int
	// Factor bounds each mispredicted flow's rate as Factor × predicted
	// (must be > 1 to have any effect).
	Factor float64
}

// demandFFC emits the per-link robustness constraints. It must run after
// capacityConstraints (links are re-bounded, not reused).
func (b *builder) demandFFC(u DemandUncertainty) error {
	if u.Count <= 0 || u.Factor <= 1 {
		return nil
	}
	if b.s.Opts.Objective != MinMLU {
		return fmt.Errorf("core: demand-uncertainty FFC applies to networks without rate control (MinMLU objective)")
	}
	over := u.Factor - 1
	for _, l := range b.s.Net.Links {
		// Per-flow planned load on this link.
		byFlow := map[tunnel.Flow]*lp.Expr{}
		for _, ft := range b.s.incidence[l.ID] {
			if _, ok := b.bVar[ft.flow]; !ok {
				continue
			}
			if !b.alive[ft.flow][ft.idx] {
				continue
			}
			e := byFlow[ft.flow]
			if e == nil {
				e = lp.NewExpr()
				byFlow[ft.flow] = e
			}
			if b.mice[ft.flow] {
				e.Add(b.miceCoef[ft.flow], b.bVar[ft.flow])
			} else {
				e.Add(1, b.aVar[ft.flow][ft.idx])
			}
		}
		if len(byFlow) == 0 {
			continue
		}
		flows := tunnel.SortedFlows(byFlow)
		exprs := make([]*lp.Expr, len(flows))
		for i, f := range flows {
			exprs[i] = lp.NewExpr().AddExpr(over, byFlow[f])
		}
		M := u.Count
		if M > len(exprs) {
			M = len(exprs)
		}
		name := fmt.Sprintf("du[e%d]", l.ID)
		var res sortnet.Result
		if b.s.Opts.Encoding == Compact {
			res = sortnet.TopKCompact(b.model, exprs, M, name)
		} else {
			res = sortnet.LargestSum(b.model, exprs, M, name)
		}
		b.encVars += res.Vars
		b.encCons += res.Constraints + 1
		// usage + worst-case overage ≤ ce · u_fault (reusing the §5.4
		// fault-MLU variable so operators can weight the robust case).
		load := b.usageExpr(l.ID).AddExpr(1, res.Sum)
		b.addCPConstraint(name, l.ID, load, b.s.capacity(b.in, l.ID))
	}
	return nil
}
