package core

import (
	"fmt"
	"math"
	"sort"

	"ffc/internal/lp"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// UpdatePlan is a chain of intermediate configurations A1…Am that moves the
// network from a current configuration to a target such that every adjacent
// transition is congestion-free regardless of the order in which switches
// apply it (Eqn 16), and — with Kc > 0 — remains so while up to Kc switches
// are stuck on any earlier configuration of the chain (§5.2).
//
// Stale switches follow the §4.2 synced-limiter model: a switch stuck on an
// earlier step splits each flow's *current* rate-limited traffic with that
// step's weights. Rate limiters are updated with each step, so shrinking a
// flow's rate immediately defuses its stale-weight risk — which is what
// makes multi-step admission of new flows possible at all.
type UpdatePlan struct {
	Steps []*State
	// Reached reports whether the final step equals the target.
	Reached bool
	// Solves is the number of LPs computed.
	Solves int
}

// PlanUpdate computes a congestion-free multi-step update from prev to
// target, robust to kc cumulative configuration faults. maxSteps bounds the
// chain length. The per-step LP maximizes progress toward the target
// allocation; planning stops early once the target is reachable in one
// final safe transition.
func (s *Solver) PlanUpdate(prev, target *State, kc, maxSteps int) (*UpdatePlan, error) {
	if maxSteps <= 0 {
		maxSteps = 8
	}
	plan := &UpdatePlan{}
	if s.encErr != nil {
		return plan, s.encErr
	}
	history := []*State{prev}
	cur := prev
	for step := 0; step < maxSteps; step++ {
		if s.transitionSafe(history, target, kc) {
			plan.Steps = append(plan.Steps, target.Clone())
			plan.Reached = true
			return plan, nil
		}
		next, err := s.planOneStep(history, target, kc)
		plan.Solves++
		if err != nil {
			return plan, fmt.Errorf("core: update step %d: %w", step+1, err)
		}
		if statesClose(next, cur) {
			return plan, fmt.Errorf("core: update stalled at step %d (kc=%d)", step+1, kc)
		}
		plan.Steps = append(plan.Steps, next)
		history = append(history, next)
		cur = next
	}
	if s.transitionSafe(history, target, kc) {
		plan.Steps = append(plan.Steps, target.Clone())
		plan.Reached = true
		return plan, nil
	}
	return plan, fmt.Errorf("core: target not reached within %d steps", maxSteps)
}

// planFlows returns the union of flows across states, ordered.
func planFlows(states ...*State) []tunnel.Flow {
	set := map[tunnel.Flow]bool{}
	for _, st := range states {
		for f := range st.Alloc {
			set[f] = true
		}
		for f := range st.Rate {
			set[f] = true
		}
	}
	return tunnel.SortedFlows(set)
}

// actualLoadBySrc returns, per link and ingress switch, the traffic st
// actually sends (weights × rate).
func (s *Solver) actualLoadBySrc(st *State) map[topology.LinkID]map[topology.SwitchID]float64 {
	out := map[topology.LinkID]map[topology.SwitchID]float64{}
	for f, rate := range st.Rate {
		if rate == 0 {
			continue
		}
		w := st.Weights(f)
		for _, t := range s.Tun.Tunnels(f) {
			if t.Index >= len(w) || w[t.Index] == 0 {
				continue
			}
			share := rate * w[t.Index]
			for _, l := range t.Links {
				m := out[l]
				if m == nil {
					m = map[topology.SwitchID]float64{}
					out[l] = m
				}
				m[f.Src] += share
			}
		}
	}
	return out
}

// histWeightOnLink returns, per flow, the worst (maximum over history
// configurations) fraction of the flow's rate that lands on each link when
// its ingress is stuck: hw[l][f] = max_j Σ_{t∋l} w^j_{f,t}.
func (s *Solver) histWeightOnLink(history []*State, flows []tunnel.Flow) map[topology.LinkID]map[tunnel.Flow]float64 {
	out := map[topology.LinkID]map[tunnel.Flow]float64{}
	for _, h := range history {
		for _, f := range flows {
			alloc, ok := h.Alloc[f]
			if !ok || sumFloats(alloc) == 0 {
				continue
			}
			w := tunnel.Weights(alloc)
			perLink := map[topology.LinkID]float64{}
			for _, t := range s.Tun.Tunnels(f) {
				if t.Index >= len(w) || w[t.Index] == 0 {
					continue
				}
				for _, l := range t.Links {
					perLink[l] += w[t.Index]
				}
			}
			for l, frac := range perLink {
				m := out[l]
				if m == nil {
					m = map[tunnel.Flow]float64{}
					out[l] = m
				}
				if frac > m[f] {
					m[f] = frac
				}
			}
		}
	}
	return out
}

func sumFloats(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// transitionSafe checks numerically whether moving from the last state of
// history directly to next satisfies Eqn 16 plus the §5.2 FFC condition:
// per link, the max of adjacent-step traffic from each source, plus the
// worst kc sources' stale excess (historical weights × next's rates), must
// fit capacity.
func (s *Solver) transitionSafe(history []*State, next *State, kc int) bool {
	cur := history[len(history)-1]
	flows := planFlows(append(history, next)...)
	curL := s.actualLoadBySrc(cur)
	nextL := s.actualLoadBySrc(next)
	hw := s.histWeightOnLink(history, flows)

	for _, l := range s.Net.Links {
		srcs := map[topology.SwitchID]bool{}
		for v := range curL[l.ID] {
			srcs[v] = true
		}
		for v := range nextL[l.ID] {
			srcs[v] = true
		}
		staleBySrc := map[topology.SwitchID]float64{}
		for f, frac := range hw[l.ID] {
			staleBySrc[f.Src] += frac * next.Rate[f]
		}
		for v := range staleBySrc {
			srcs[v] = true
		}
		var base float64
		var excess []float64
		for v := range srcs {
			m := math.Max(curL[l.ID][v], nextL[l.ID][v])
			base += m
			if e := staleBySrc[v] - m; e > 0 {
				excess = append(excess, e)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(excess)))
		top := 0.0
		for i := 0; i < kc && i < len(excess); i++ {
			top += excess[i]
		}
		if overThreshold(base+top, s.Net.Links[l.ID].Capacity) {
			return false
		}
	}
	return true
}

// planOneStep solves the per-step LP: maximize progress toward the target
// subject to the transition-safety constraints against the last
// configuration and the stale-weight FFC condition against all earlier
// ones.
func (s *Solver) planOneStep(history []*State, target *State, kc int) (*State, error) {
	cur := history[len(history)-1]
	model := lp.NewModel()
	flows := planFlows(append(history, target)...)

	// Variables: per-tunnel allocation a, per-flow rate r ≤ Σa capped by
	// the target rate. Rates are what limiters enforce; stale-weight risk
	// scales with them.
	aVar := map[tunnel.Flow][]lp.Var{}
	rVar := map[tunnel.Flow]lp.Var{}
	obj := lp.NewExpr()
	for _, f := range flows {
		ts := s.Tun.Tunnels(f)
		vars := make([]lp.Var, len(ts))
		cover := lp.NewExpr()
		for i := range ts {
			tgt := idx(target.Alloc[f], i)
			curA := idx(cur.Alloc[f], i)
			// Never overshoot past max(current, target): keeps steps
			// monotone and the search stable.
			vars[i] = model.NewVar(fmt.Sprintf("a[%v,%d]", f, i), 0, math.Max(tgt, curA))
			cover.Add(1, vars[i])
			// z ≤ a, z ≤ target; progress plus a small shrink incentive.
			z := model.NewVar("z", 0, tgt)
			model.AddGE(lp.NewExpr().Add(1, vars[i]).Add(-1, z), 0)
			obj.Add(1, z)
			obj.Add(-1e-3, vars[i])
		}
		r := model.NewVar(fmt.Sprintf("r[%v]", f), 0, target.Rate[f])
		model.AddGE(cover.Add(-1, r), 0)
		obj.Add(10, r) // rates are the real progress currency
		aVar[f] = vars
		rVar[f] = r
	}

	curL := s.actualLoadBySrc(cur)
	hw := s.histWeightOnLink(history, flows)

	for _, l := range s.Net.Links {
		// New per-source loads (allocation upper-bounds the traffic).
		bySrc := map[topology.SwitchID]*lp.Expr{}
		for _, ft := range s.incidence[l.ID] {
			f := s.flows[ft.flow]
			if vars, ok := aVar[f]; ok {
				e := bySrc[f.Src]
				if e == nil {
					e = lp.NewExpr()
					bySrc[f.Src] = e
				}
				e.Add(1, vars[ft.idx])
			}
		}
		// Stale-weight loads per source: Σ_f hw·r_f.
		staleBySrc := map[topology.SwitchID]*lp.Expr{}
		for f, frac := range hw[l.ID] {
			e := staleBySrc[f.Src]
			if e == nil {
				e = lp.NewExpr()
				staleBySrc[f.Src] = e
			}
			e.Add(frac, rVar[f])
		}

		srcs := map[topology.SwitchID]bool{}
		for v := range bySrc {
			srcs[v] = true
		}
		for v := range curL[l.ID] {
			srcs[v] = true
		}
		for v := range staleBySrc {
			srcs[v] = true
		}
		if len(srcs) == 0 {
			continue
		}
		var srcList []topology.SwitchID
		for v := range srcs {
			srcList = append(srcList, v)
		}
		sort.Slice(srcList, func(i, j int) bool { return srcList[i] < srcList[j] })

		base := lp.NewExpr() // Σ_v M_v with M_v ≥ max(cur, next)
		var excess []*lp.Expr
		for _, v := range srcList {
			m := model.NewVar(fmt.Sprintf("M[e%d,v%d]", l.ID, v), 0, lp.Inf)
			model.AddGE(lp.NewExpr().Add(1, m), curL[l.ID][v])
			if e := bySrc[v]; e != nil {
				model.AddGE(lp.NewExpr().Add(1, m).AddExpr(-1, e), 0)
			}
			base.Add(1, m)
			if kc > 0 {
				if se := staleBySrc[v]; se != nil {
					// G_v ≥ stale(v) − M_v, G_v ≥ 0.
					g := model.NewVar(fmt.Sprintf("G[e%d,v%d]", l.ID, v), 0, lp.Inf)
					model.AddGE(lp.NewExpr().Add(1, g).Add(1, m).AddExpr(-1, se), 0)
					excess = append(excess, lp.NewExpr().Add(1, g))
				}
			}
		}
		// Σ_v M_v plus the kc largest stale excesses fits the link (excess
		// is empty at kc = 0, leaving the one row Σ_v M_v ≤ c).
		c := s.Net.Links[l.ID].Capacity
		s.msum(model, excess, kc, true, fmt.Sprintf("upd[e%d]", l.ID), func(sum *lp.Expr) {
			model.AddNamed(fmt.Sprintf("trans[e%d]", l.ID), base.Clone().AddExpr(1, sum), lp.LE, c)
		})
	}

	model.Maximize(obj)
	sol, err := model.Solve()
	if err != nil {
		return nil, err
	}
	next := NewState()
	for _, f := range flows {
		alloc := make([]float64, len(aVar[f]))
		for i, v := range aVar[f] {
			alloc[i] = clampTiny(sol.Value(v))
		}
		next.Alloc[f] = alloc
		next.Rate[f] = clampTiny(sol.Value(rVar[f]))
	}
	return next, nil
}

func statesClose(a, b *State) bool {
	diff := 0.0
	for f, av := range a.Alloc {
		bv := b.Alloc[f]
		for i := range av {
			diff += math.Abs(av[i] - idx(bv, i))
		}
	}
	for f, bv := range b.Alloc {
		if _, ok := a.Alloc[f]; ok {
			continue
		}
		for _, x := range bv {
			diff += math.Abs(x)
		}
	}
	for f, ar := range a.Rate {
		diff += math.Abs(ar - b.Rate[f])
	}
	for f, br := range b.Rate {
		if _, ok := a.Rate[f]; !ok {
			diff += math.Abs(br)
		}
	}
	return diff < 1e-6
}
