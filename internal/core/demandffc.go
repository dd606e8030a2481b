package core

import (
	"fmt"

	"ffc/internal/lp"
)

// DemandUncertainty extends FFC to demand faults, the future-work direction
// the paper sketches in §9: in networks without ingress rate control
// (MinMLU-style TE), actual flow rates can exceed predictions. Analogous to
// treating a mispredicted flow as a faulty rate limiter, the TE is made
// robust to ANY combination of up to Count flows each sending up to
// Factor × its predicted demand: since an uncontrolled flow's link load
// scales proportionally with its rate, the extra load a mispredicted flow
// puts on link e is (Factor−1) × its planned load there, and the worst case
// over all misprediction sets is a bounded M-sum — emitted by the same
// encoding as §4.4's.
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
	byFlow := make([]*lp.Expr, len(b.s.flows))
	for _, l := range b.s.Net.Links {
		// Per-flow overage on this link, in flow-index order.
		for _, ft := range b.s.incidence[l.ID] {
			fv := &b.fv[ft.flow]
			if !fv.sel || !fv.alive[ft.idx] {
				continue
			}
			if byFlow[ft.flow] == nil {
				byFlow[ft.flow] = lp.NewExpr()
			}
			coef, v := fv.alloc(ft.idx)
			byFlow[ft.flow].Add(over*coef, v)
		}
		var exprs []*lp.Expr
		for i, e := range byFlow {
			if e != nil {
				exprs = append(exprs, e)
				byFlow[i] = nil
			}
		}
		if len(exprs) == 0 {
			continue
		}
		name := fmt.Sprintf("du[e%d]", l.ID)
		// usage + worst-case overage ≤ ce · u_fault (reusing the §5.4
		// fault-MLU variable so operators can weight the robust case).
		b.msum(exprs, u.Count, true, name, func(sum *lp.Expr) {
			b.addCPConstraint(name, l.ID, b.usageExpr(l.ID).AddExpr(1, sum), b.s.capacity(b.in, l.ID))
		})
	}
	return nil
}
