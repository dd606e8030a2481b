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
	p := s.newPlanner([]*State{prev}, target, kc)
	for step := 0; !p.safe(&p.target); step++ {
		if step == maxSteps {
			return plan, fmt.Errorf("core: target not reached within %d steps", maxSteps)
		}
		next, err := p.step()
		plan.Solves++
		if err != nil {
			return plan, fmt.Errorf("core: update step %d: %w", step+1, err)
		}
		nv := s.view(next)
		if statesClose(&nv, &p.history[len(p.history)-1]) {
			return plan, fmt.Errorf("core: update stalled at step %d (kc=%d)", step+1, kc)
		}
		plan.Steps = append(plan.Steps, next)
		p.history = append(p.history, nv)
	}
	plan.Steps = append(plan.Steps, target.Clone())
	plan.Reached = true
	return plan, nil
}

// transitionSafe reports whether moving from history's last state straight
// to next is safe (planner.safe).
func (s *Solver) transitionSafe(history []*State, next *State, kc int) bool {
	p := s.newPlanner(history, next, kc)
	return p.safe(&p.target)
}

// view is a state by flow index: each flow's rate and allocation, the
// weights its traffic splits with, and the weights a switch stuck on the
// state splits it with (nil where the state allocates the flow nothing).
type view struct {
	rate            []float64
	alloc, w, stale [][]float64
}

func (s *Solver) view(st *State) view {
	n := len(s.flows)
	v := view{make([]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)}
	for i, f := range s.flows {
		v.rate[i], v.alloc[i], v.w[i] = st.Rate[f], st.Alloc[f], tunnel.Weights(st.Alloc[f])
		var sum float64
		for _, a := range v.alloc[i] {
			sum += a
		}
		if sum != 0 {
			v.stale[i] = v.w[i]
		}
	}
	return v
}

// load adds to *sum, tunnel by tunnel, the traffic st sends of flow i over
// run's tunnels.
func (st *view) load(sum *float64, i int, run []flowTunnel) {
	for _, ft := range run {
		*sum += st.rate[i] * idx(st.w[i], ft.idx)
	}
}

// planner is one update chain by flow index: the target, the history so
// far (from prev), the states whose flows every step carries, and scan's
// per-ingress current traffic by SwitchID.
type planner struct {
	s       *Solver
	kc      int
	target  view
	history []view
	states  []*State
	cur     []float64
}

func (s *Solver) newPlanner(history []*State, target *State, kc int) *planner {
	p := &planner{s: s, kc: kc, target: s.view(target), states: append([]*State{target}, history...),
		cur: make([]float64, len(s.Net.Switches))}
	for _, st := range history {
		p.history = append(p.history, s.view(st))
	}
	return p
}

// scan walks link l's incidence once, a flow's run of tunnels at a time.
// It adds each ingress's current traffic to p.cur and calls fn with each flow's ingress, index and run, and the largest
// fraction of its rate that the ingress puts on l while stuck on a history
// configuration: max_j Σ_{t∋l} w^j_{f,t}, 0 if none.
func (p *planner) scan(l topology.LinkID, fn func(v topology.SwitchID, i int, run []flowTunnel, frac float64)) {
	inc, cur := p.s.incidence[l], &p.history[len(p.history)-1]
	clear(p.cur)
	for k := 0; k < len(inc); {
		i, end := inc[k].flow, k+1
		for end < len(inc) && inc[end].flow == i {
			end++
		}
		run := inc[k:end]
		k = end
		v := p.s.flows[i].Src
		cur.load(&p.cur[v], i, run)
		frac := 0.0
		for _, h := range p.history {
			share := 0.0
			for _, ft := range run {
				share += idx(h.stale[i], ft.idx)
			}
			frac = max(frac, share)
		}
		fn(v, i, run, frac)
	}
}

// safe checks Eqn 16 plus the §5.2 FFC condition for moving from the last
// history configuration straight to next: per link, each source's max of
// adjacent-step traffic plus the kc largest stale excesses (historical
// weights × next's rates) must fit capacity.
func (p *planner) safe(next *view) bool {
	nxt, stale := make([]float64, len(p.cur)), make([]float64, len(p.cur))
	for _, l := range p.s.Net.Links {
		clear(nxt)
		clear(stale)
		p.scan(l.ID, func(v topology.SwitchID, i int, run []flowTunnel, frac float64) {
			next.load(&nxt[v], i, run)
			stale[v] += frac * next.rate[i]
		})
		base, excess := 0.0, []float64(nil)
		for v, cur := range p.cur {
			m := math.Max(cur, nxt[v])
			base += m
			if e := stale[v] - m; e > 0 {
				excess = append(excess, e)
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(excess)))
		top := 0.0
		for _, e := range excess[:min(p.kc, len(excess))] {
			top += e
		}
		if overThreshold(base+top, l.Capacity) {
			return false
		}
	}
	return true
}

// step solves the per-step LP: maximize progress toward the target under
// the transition-safety rows against the last configuration and the
// stale-weight FFC rows against all earlier ones.
func (p *planner) step() (*State, error) {
	s, cur, tgt, model := p.s, &p.history[len(p.history)-1], &p.target, lp.NewModel()
	// next carries every flow of the states, at rate 0 until the LP rates
	// it; a flow without a tunnel has no index, so it stays there.
	next := NewState()
	for _, st := range p.states {
		for f := range st.Rate {
			next.Rate[f], next.Alloc[f] = 0, []float64{}
		}
		for f := range st.Alloc {
			next.Rate[f], next.Alloc[f] = 0, []float64{}
		}
	}
	// Variables, by flow index: per-tunnel allocation a (nil outside next),
	// per-flow rate r ≤ Σa capped by the target rate. Rates are what
	// limiters enforce; stale-weight risk scales with them.
	a, r := make([][]lp.Var, len(s.flows)), make([]lp.Var, len(s.flows))
	obj := lp.NewExpr()
	for i, f := range s.flows {
		if _, ok := next.Rate[f]; !ok {
			continue
		}
		a[i] = make([]lp.Var, len(s.Tun.Tunnels(f)))
		cover := lp.NewExpr()
		for t := range a[i] {
			hi := idx(tgt.alloc[i], t)
			// Never overshoot past max(current, target): keeps steps
			// monotone and the search stable.
			a[i][t] = model.NewVar(fmt.Sprintf("a[%v,%d]", f, t), 0, math.Max(hi, idx(cur.alloc[i], t)))
			cover.Add(1, a[i][t])
			// z ≤ a, z ≤ target; progress plus a small shrink incentive.
			z := model.NewVar("z", 0, hi)
			model.AddGE(lp.NewExpr().Add(1, a[i][t]).Add(-1, z), 0)
			obj.Add(1, z).Add(-1e-3, a[i][t])
		}
		r[i] = model.NewVar(fmt.Sprintf("r[%v]", f), 0, tgt.rate[i])
		model.AddGE(cover.Add(-1, r[i]), 0)
		obj.Add(10, r[i]) // rates are the real progress currency
	}

	bySrc, staleBy := make([]lp.Expr, len(p.cur)), make([]lp.Expr, len(p.cur))
	for _, l := range s.Net.Links {
		// Per source: the new loads (allocation upper-bounds the traffic)
		// and the stale-weight loads Σ_f frac·r_f (frac = 0 adds no term).
		p.scan(l.ID, func(v topology.SwitchID, i int, run []flowTunnel, frac float64) {
			for k := 0; k < len(run) && a[i] != nil; k++ {
				bySrc[v].Add(1, a[i][run[k].idx])
			}
			staleBy[v].Add(frac, r[i])
		})
		base := lp.NewExpr() // Σ_v M_v with M_v ≥ max(cur, next)
		var excess []*lp.Expr
		// Every flow that sends or is stuck on l is in the plan, so the
		// sources with a term in bySrc are all of l's.
		for v := range bySrc {
			if len(bySrc[v].Terms) == 0 {
				continue
			}
			m := model.NewVar(fmt.Sprintf("M[e%d,v%d]", l.ID, v), 0, lp.Inf)
			model.AddGE(lp.NewExpr().Add(1, m), p.cur[v])
			model.AddGE(lp.NewExpr().Add(1, m).AddExpr(-1, &bySrc[v]), 0)
			base.Add(1, m)
			if p.kc > 0 && len(staleBy[v].Terms) > 0 {
				// G_v ≥ stale(v) − M_v, G_v ≥ 0.
				g := model.NewVar(fmt.Sprintf("G[e%d,v%d]", l.ID, v), 0, lp.Inf)
				model.AddGE(lp.NewExpr().Add(1, g).Add(1, m).AddExpr(-1, &staleBy[v]), 0)
				excess = append(excess, lp.NewExpr().Add(1, g))
			}
			bySrc[v].Terms, staleBy[v].Terms = bySrc[v].Terms[:0], staleBy[v].Terms[:0]
		}
		if len(base.Terms) == 0 {
			continue
		}
		// Σ_v M_v plus the kc largest stale excesses fits the link (excess
		// is empty at kc = 0, leaving the one row Σ_v M_v ≤ c).
		s.msum(model, excess, p.kc, true, fmt.Sprintf("upd[e%d]", l.ID), func(sum *lp.Expr) {
			model.AddNamed(fmt.Sprintf("trans[e%d]", l.ID), base.Clone().AddExpr(1, sum), lp.LE, l.Capacity)
		})
	}

	model.Maximize(obj)
	sol, err := model.Solve()
	if err != nil {
		return nil, err
	}
	for i, f := range s.flows {
		if a[i] == nil {
			continue
		}
		alloc := make([]float64, len(a[i]))
		for t, v := range a[i] {
			alloc[t] = clampTiny(sol.Value(v))
		}
		next.Alloc[f], next.Rate[f] = alloc, clampTiny(sol.Value(r[i]))
	}
	return next, nil
}

// statesClose reports whether a and b differ by less than 1e-6 in total
// over every flow's rate and allocation.
func statesClose(a, b *view) bool {
	diff := 0.0
	for i := range a.rate {
		diff += math.Abs(a.rate[i] - b.rate[i])
		for t := range max(len(a.alloc[i]), len(b.alloc[i])) {
			diff += math.Abs(idx(a.alloc[i], t) - idx(b.alloc[i], t))
		}
	}
	return diff < 1e-6
}
