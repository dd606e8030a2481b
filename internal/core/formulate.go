package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"ffc/internal/lp"
	"ffc/internal/sortnet"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// mluSigma is §5.4's σ, the MinMLU objective's weight on fault-case MLU.
const mluSigma = 0.5

// builder assembles one TE LP.
type builder struct {
	s     *Solver
	in    *Input
	model *lp.Model

	// fv is the flow table, by the solver's flow index; flows lists the
	// indexes in this LP in index order, and mice those whose split is
	// fixed (§6).
	fv    []flowVars
	flows []int
	mice  []int

	encVars, encCons int
	mluVar           lp.Var
	mluFaultVar      lp.Var
	haveMLUFault     bool
	// capRow holds each link's Eqn 2 row (for shadow prices) and capVar
	// its expansion variable (PlanCapacity objective), by LinkID; −1 for
	// none.
	capRow []int
	capVar []lp.Var
}

// flowVars is one flow's share of the formulation.
type flowVars struct {
	sel bool // positive demand: the flow is in this LP
	b   lp.Var
	a   []lp.Var // per tunnel; nil for mice
	// A mouse splits uniformly over τf tunnels: a_{f,t} = coef·bf.
	mice bool
	coef float64
	// beta caches β_{f,t}, created lazily per tunnel (−1 until then).
	beta []lp.Var
	// alive[t] reports whether tunnel t survives the input's down sets;
	// tau is τf computed over the surviving tunnels.
	alive []bool
	tau   int
}

// alloc returns a_{f,t} as one term: the allocation variable, or a mouse's
// share of bf.
func (fv *flowVars) alloc(t int) (float64, lp.Var) {
	if fv.mice {
		return fv.coef, fv.b
	}
	return 1, fv.a[t]
}

// msum emits one bounded M-sum through the solver's encoding (row is
// called once per constraint the bound takes) and counts its size.
func (b *builder) msum(exprs []*lp.Expr, k int, largest bool, name string, row func(*lp.Expr)) {
	vars, cons := b.s.msum(b.model, exprs, k, largest, name, row)
	b.encVars += vars
	b.encCons += cons
}

func newBuilder(s *Solver, in *Input) *builder {
	b := &builder{s: s, in: in, model: lp.NewModel(),
		fv:     make([]flowVars, len(s.flows)),
		capRow: make([]int, len(s.Net.Links)),
		capVar: make([]lp.Var, len(s.Net.Links)),
	}
	for l := range b.capRow {
		b.capRow[l], b.capVar[l] = -1, -1
	}
	return b
}

// independentReservations handles Eqn 17's bilinear old-rate × new-weights
// term soundly: requiring Σ_t a_{f,t} ≥ b'f makes w_t·b'f ≤ a_t per tunnel
// (weights are a_t/Σa), so β ≥ a_t already covers it. The cost is that a
// shrinking flow's link reservation cannot drop below its old rate within
// one interval — exactly the capacity that must be held while the old rate
// limiter may still be live.
func (b *builder) independentReservations() {
	for _, i := range b.flows {
		f, fv := b.s.flows[i], &b.fv[i]
		old := b.in.Prev.Rate[f]
		if old <= 0 || fv.mice {
			continue
		}
		if _, ok := b.in.Uncertain[f]; ok {
			continue // pinned to the old configuration already
		}
		e := lp.NewExpr()
		for _, v := range fv.a {
			e.Add(1, v)
		}
		b.model.AddNamed(fmt.Sprintf("resv[%v]", f), e, lp.GE, old)
		b.encCons++
	}
}

func (b *builder) formulate() error {
	if b.in.Prot.Kc > 0 && b.in.Prev == nil {
		return fmt.Errorf("core: control-plane FFC (kc=%d) requires the previous configuration", b.in.Prot.Kc)
	}
	b.selectFlows()
	b.selectMice()
	b.createVars()
	b.coverageConstraints()
	b.capacityConstraints()
	b.dataPlane()
	if b.in.Prot.Kc > 0 {
		if b.s.Opts.RateLimiter == LimitersIndependent {
			b.independentReservations()
		}
		b.controlPlane()
	}
	if err := b.demandFFC(b.in.Demand); err != nil {
		return err
	}
	b.objective()
	return nil
}

// selectFlows picks the flows with positive demand, in flow-index order. A
// flow without tunnels has no index, so it never enters the LP.
func (b *builder) selectFlows() {
	for i, f := range b.s.flows {
		if b.in.Demands[f] <= 0 {
			continue
		}
		alive := b.in.aliveTunnels(b.s.Net, b.s.Tun, f)
		b.fv[i] = flowVars{sel: true, alive: alive, tau: b.s.tau(f, b.in.Prot, alive)}
		b.flows = append(b.flows, i)
	}
}

// selectMice marks miceOf's flows; their tunnel split is fixed to
// uniform-over-τf.
func (b *builder) selectMice() {
	b.mice = b.miceOf(b.in)
	for _, i := range b.mice {
		b.fv[i].mice = true
		b.fv[i].coef = 1 / float64(b.fv[i].tau)
	}
}

// miceOf returns the smallest of b's flows carrying at most MiceFraction of
// in's total demand (§6), in selection order. Beyond in it reads only b's
// flow list and τf, which the flow list, down sets and protection fix, so a
// template can ask whether a matching input keeps its frozen mice set.
func (b *builder) miceOf(in *Input) []int {
	frac := b.s.Opts.MiceFraction
	if frac <= 0 {
		return nil
	}
	// dem holds each selected flow's demand by flow index: the sort compares
	// slice entries, not two map lookups per comparison.
	dem := make([]float64, len(b.s.flows))
	total := 0.0
	for _, i := range b.flows {
		dem[i] = in.Demands[b.s.flows[i]]
		total += dem[i]
	}
	order := slices.Clone(b.flows)
	sort.Slice(order, func(x, y int) bool { return dem[order[x]] < dem[order[y]] })
	budget := frac * total
	var mice []int
	for _, i := range order {
		f, d := b.s.flows[i], dem[i]
		if d > budget {
			break
		}
		if _, isUncertain := in.Uncertain[f]; isUncertain {
			continue // uncertain flows are pinned, not re-split
		}
		if b.s.Opts.RateLimiter == LimitersIndependent && in.Prot.Kc > 0 &&
			in.Prev != nil && in.Prev.Rate[f] > 0 {
			continue // needs the Σa ≥ b' reservation, which mice can't carry
		}
		if b.fv[i].tau <= 0 {
			continue // flow will be zeroed anyway
		}
		budget -= d
		mice = append(mice, i)
	}
	return mice
}

// rateBounds derives bf's bounds from the current input (a pure function
// of values, given fixed flow structure — Session.rebind reuses it to
// re-bound a cached model without re-formulating).
func (b *builder) rateBounds(i int) (lo, hi float64) {
	f := b.s.flows[i]
	d := b.in.Demands[f]
	lo, hi = 0.0, d
	if b.s.Opts.Objective == MinMLU || b.s.Opts.Objective == PlanCapacity {
		lo = d // the full offered demand must be carried
	}
	if cap, ok := b.in.RateCaps[f]; ok && cap < hi {
		hi = cap
		if lo > hi {
			lo = hi
		}
	}
	if floor, ok := b.in.RateFloors[f]; ok {
		if floor > hi {
			floor = hi
		}
		if floor > lo {
			lo = floor
		}
	}
	if fixed, ok := b.in.FixedRates[f]; ok {
		lo, hi = fixed, fixed
	}
	if _, ok := b.in.Uncertain[f]; ok {
		prevRate := b.in.Prev.Rate[f]
		lo, hi = prevRate, prevRate
	}
	if b.fv[i].tau <= 0 {
		// Worst-case faults can kill every surviving tunnel: the flow
		// cannot be admitted under this protection level (§4.3).
		lo, hi = 0, 0
	}
	return lo, hi
}

// allocBounds derives a_{f,t}'s bounds from the current input (also reused
// by Session.rebind).
func (b *builder) allocBounds(i, t int) (alo, ahi float64) {
	alo, ahi = 0, lp.Inf
	if _, ok := b.in.Uncertain[b.s.flows[i]]; ok {
		prev := idx(b.in.Prev.Alloc[b.s.flows[i]], t)
		alo, ahi = prev, prev
	}
	if !b.fv[i].alive[t] {
		alo, ahi = 0, 0 // tunnel is currently down
	}
	return alo, ahi
}

func (b *builder) createVars() {
	for _, i := range b.flows {
		f, fv := b.s.flows[i], &b.fv[i]
		lo, hi := b.rateBounds(i)
		fv.b = b.model.NewVar(fmt.Sprintf("b[%v]", f), lo, hi)
		if fv.mice {
			continue
		}
		fv.a = make([]lp.Var, len(fv.alive))
		for t := range fv.a {
			alo, ahi := b.allocBounds(i, t)
			fv.a[t] = b.model.NewVar(fmt.Sprintf("a[%v,%d]", f, t), alo, ahi)
		}
	}
}

// usageExpr builds Σ_{f,t crossing e} a_{f,t} for link e.
func (b *builder) usageExpr(e topology.LinkID) *lp.Expr {
	expr := lp.NewExpr()
	for _, ft := range b.s.incidence[e] {
		// Skip flows outside this computation and down tunnels.
		if fv := &b.fv[ft.flow]; fv.sel && fv.alive[ft.idx] {
			expr.Add(fv.alloc(ft.idx))
		}
	}
	return expr
}

// coverageConstraints emits Eqn 3: Σ_t a_{f,t} ≥ bf.
func (b *builder) coverageConstraints() {
	for _, i := range b.flows {
		fv := &b.fv[i]
		if fv.mice {
			continue // |Tf|·bf/τf ≥ bf holds by construction
		}
		e := lp.NewExpr()
		for _, v := range fv.a {
			e.Add(1, v)
		}
		e.Add(-1, fv.b)
		b.model.AddNamed(fmt.Sprintf("cover[%v]", b.s.flows[i]), e, lp.GE, 0)
	}
}

// capacityConstraints emits Eqn 2 (or the MLU coupling for MinMLU, or the
// expandable-capacity form for PlanCapacity), one row per loaded link.
func (b *builder) capacityConstraints() {
	if b.s.Opts.Objective == MinMLU {
		b.mluVar = b.model.NewVar("MLU", 0, lp.Inf)
	}
	for _, l := range b.s.Net.Links {
		use := b.usageExpr(l.ID)
		if len(use.Terms) == 0 {
			continue
		}
		c := b.s.capacity(b.in, l.ID)
		switch b.s.Opts.Objective {
		case MinMLU:
			// u ≥ usage/ce  ⟺  usage − ce·u ≤ 0
			use.Add(-c, b.mluVar)
			b.model.AddNamed(fmt.Sprintf("mlu[e%d]", l.ID), use, lp.LE, 0)
		case PlanCapacity:
			// usage − x_e ≤ ce with x_e ≥ 0 the expansion bought.
			use.Add(-1, b.expandVar(l.ID))
			b.model.AddNamed(fmt.Sprintf("cap[e%d]", l.ID), use, lp.LE, c)
		default:
			b.capRow[l.ID] = b.model.AddNamed(fmt.Sprintf("cap[e%d]", l.ID), use, lp.LE, c)
		}
	}
}

// expandVar lazily creates the PlanCapacity expansion variable for a link.
func (b *builder) expandVar(l topology.LinkID) lp.Var {
	if b.capVar[l] < 0 {
		b.capVar[l] = b.model.NewVar(fmt.Sprintf("x[e%d]", l), 0, lp.Inf)
	}
	return b.capVar[l]
}

// dataPlane emits Eqn 15 (or the naive Eqn 9 enumeration) per flow.
func (b *builder) dataPlane() {
	prot := b.in.Prot
	if prot.Ke == 0 && prot.Kv == 0 {
		return
	}
	for _, i := range b.flows {
		f, fv := b.s.flows[i], &b.fv[i]
		if fv.mice {
			continue // uniform split satisfies Eqn 15 by construction
		}
		var aliveTs []*tunnel.Tunnel
		for _, t := range b.s.Tun.Tunnels(f) {
			if fv.alive[t.Index] {
				aliveTs = append(aliveTs, t)
			}
		}
		tau := fv.tau
		if tau <= 0 {
			continue // bf already fixed to 0
		}
		if tau >= len(aliveTs) {
			continue // no tunnel can be lost at this protection level
		}
		if b.s.naiveDP {
			b.encCons += b.dataPlaneNaive(f, fv, aliveTs, prot)
			continue
		}
		exprs := make([]*lp.Expr, len(aliveTs))
		for k, t := range aliveTs {
			exprs[k] = lp.NewExpr().Add(1, fv.a[t.Index])
		}
		drop := len(aliveTs) - tau
		rhs := lp.NewExpr().Add(1, fv.b)
		name := fmt.Sprintf("dp[%v]", f)
		if tau <= drop {
			// Encode the smallest τ directly: Σ smallest-τ a ≥ bf.
			b.msum(exprs, tau, false, name, func(sum *lp.Expr) {
				b.model.AddNamed(name, lp.NewExpr().AddExpr(1, sum).AddExpr(-1, rhs), lp.GE, 0)
			})
			continue
		}
		// Cheaper dual form: Σ all − Σ largest-(|T|−τ) ≥ bf.
		b.msum(exprs, drop, true, name, func(sum *lp.Expr) {
			total := lp.NewExpr()
			for _, e := range exprs {
				total.AddExpr(1, e)
			}
			b.model.AddNamed(name, total.AddExpr(-1, sum).AddExpr(-1, rhs), lp.GE, 0)
		})
	}
}

// dataPlaneNaive enumerates Eqn 9's fault cases for one flow: every
// combination of Ke physical links and Kv switches drawn from the elements
// the flow's tunnels actually traverse. Returns the constraint count.
func (b *builder) dataPlaneNaive(f tunnel.Flow, fv *flowVars, ts []*tunnel.Tunnel, prot Protection) int {
	// Mark candidate physical links and intermediate switches by ID.
	net := b.s.Net
	onLink := make([]bool, len(net.Links))
	onSw := make([]bool, len(net.Switches))
	for _, t := range ts {
		for _, l := range t.Links {
			onLink[net.Physical(l)] = true
		}
		for _, v := range t.Switches[1 : len(t.Switches)-1] {
			onSw[v] = true
		}
	}
	links := marked[topology.LinkID](onLink)
	sws := marked[topology.SwitchID](onSw)

	ke := prot.Ke
	if ke > len(links) {
		ke = len(links)
	}
	kv := prot.Kv
	if kv > len(sws) {
		kv = len(sws)
	}
	// Maximal fault sets dominate smaller ones (residual sets shrink
	// monotonically), so only size-ke × size-kv combinations are emitted.
	cons := 0
	sortnet.ForEachCombo(len(links), ke, func(li []int) {
		down := map[topology.LinkID]bool{}
		for _, i := range li {
			down[links[i]] = true
			if tw := net.Links[links[i]].Twin; tw != topology.None {
				down[tw] = true
			}
		}
		sortnet.ForEachCombo(len(sws), kv, func(si []int) {
			downSw := map[topology.SwitchID]bool{}
			for _, i := range si {
				downSw[sws[i]] = true
			}
			e := lp.NewExpr()
			for _, t := range ts {
				if t.Alive(net, down, downSw) {
					e.Add(1, fv.a[t.Index])
				}
			}
			e.Add(-1, fv.b)
			b.model.AddNamed(fmt.Sprintf("dp9[%v]", f), e, lp.GE, 0)
			cons++
		})
	})
	return cons
}

// marked returns the indexes set in marks, ascending.
func marked[ID ~int](marks []bool) []ID {
	var out []ID
	for i, m := range marks {
		if m {
			out = append(out, ID(i))
		}
	}
	return out
}

// betaMinusAlpha returns (β_{f,t} − a_{f,t}) as an expression for the
// configured rate-limiter mode, or nil when the difference is identically
// zero. Lazily creates β variables for non-mice flows.
func (b *builder) betaMinusAlpha(i, t int) *lp.Expr {
	f, fv := b.s.flows[i], &b.fv[i]
	prev := b.in.Prev
	if u, ok := b.in.Uncertain[f]; ok {
		// §5.6: β = max of the two candidate old configurations; the
		// current allocation is pinned to prev. Both are constants.
		aPrev := idx(prev.Alloc[f], t)
		aOlder := idx(u.AllocOlder, t)
		d := math.Max(aOlder, aPrev) - aPrev
		if d <= 0 {
			return nil
		}
		return lp.NewExpr().AddConst(d)
	}

	oldWeight := 0.0
	if pa, ok := prev.Alloc[f]; ok {
		w := tunnel.Weights(pa)
		if t < len(w) {
			oldWeight = w[t]
		}
	}
	oldAlloc := idx(prev.Alloc[f], t)

	if fv.mice {
		// β − a = (max(w', 1/τ) − 1/τ)·bf, a constant coefficient on bf.
		// Under LimitersOrdered β = max(a', a) with a = c·bf has the
		// constant part max(a'−c·bf, 0), which is not linear; the synced
		// shape dominates it when weights persist, and for mice this
		// conservative choice is negligible by construction.
		coef := math.Max(oldWeight, fv.coef) - fv.coef
		if coef <= 0 {
			return nil
		}
		return lp.NewExpr().Add(coef, fv.b)
	}

	var needs []func(beta lp.Var)
	switch b.s.Opts.RateLimiter {
	case LimitersSynced:
		// Eqn 8: β ≥ w'·bf, β ≥ a.
		if oldWeight <= 0 {
			return nil // β = a exactly; contributes nothing
		}
		needs = append(needs, func(beta lp.Var) {
			b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-oldWeight, fv.b), 0)
		})
	case LimitersOrdered:
		// Eqn 18: β ≥ a' (constant), β ≥ a.
		if oldAlloc <= 0 {
			return nil
		}
		needs = append(needs, func(beta lp.Var) {
			b.model.AddGE(lp.NewExpr().Add(1, beta), oldAlloc)
		})
	case LimitersIndependent:
		// Eqn 17 less the bilinear b'f·w term (handled at the (v,e) level
		// as a per-flow constant; see controlPlane).
		if oldAlloc <= 0 && oldWeight <= 0 {
			return nil
		}
		needs = append(needs, func(beta lp.Var) {
			if oldAlloc > 0 {
				b.model.AddGE(lp.NewExpr().Add(1, beta), oldAlloc)
			}
			if oldWeight > 0 {
				b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-oldWeight, fv.b), 0)
			}
		})
	}

	// Create (or reuse) the β variable for this tunnel.
	if fv.beta == nil {
		fv.beta = make([]lp.Var, len(fv.alive))
		for k := range fv.beta {
			fv.beta[k] = -1
		}
	}
	if fv.beta[t] < 0 {
		beta := b.model.NewVar(fmt.Sprintf("beta[%v,%d]", f, t), 0, lp.Inf)
		fv.beta[t] = beta
		b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-1, fv.a[t]), 0)
		b.encCons++
		for _, add := range needs {
			add(beta)
			b.encCons++
		}
		b.encVars++
	}
	return lp.NewExpr().Add(1, fv.beta[t]).Add(-1, fv.a[t])
}

func idx(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// controlPlane emits Eqn 14 per link (Eqn 5 itself under Subsets: d ≥ 0,
// so only the maximal kc-subsets are needed). A β variable and its
// defining rows are shared by every link its tunnel crosses, so a first
// pass in link order creates them all, along with each link's (β−a)
// source grouping in switch order; the second pass emits the per-link
// M-sum encodings and safety rows.
func (b *builder) controlPlane() {
	prev := b.in.Prev
	prevLoads := prev.ActualLinkLoads(b.s.Tun)
	type cpBlock struct {
		l     topology.LinkID
		c     float64
		exprs []*lp.Expr
	}
	var blocks []cpBlock
	bySrc := make([]*lp.Expr, len(b.s.Net.Switches))
	for _, l := range b.s.Net.Links {
		inc := b.s.incidence[l.ID]
		if len(inc) == 0 {
			continue
		}
		c := b.s.capacity(b.in, l.ID)
		if prevLoads[l.ID] > c+1e-9 {
			// §4.5: the link is already overloaded (a fault beyond the
			// protection level occurred); allow an unprotected move by
			// setting kc=0 for this link.
			continue
		}

		// Group (β−a) contributions by ingress switch.
		for _, ft := range inc {
			if !b.fv[ft.flow].sel {
				continue
			}
			d := b.betaMinusAlpha(ft.flow, ft.idx)
			if d == nil {
				continue
			}
			if src := b.s.flows[ft.flow].Src; bySrc[src] != nil {
				bySrc[src].AddExpr(1, d)
			} else {
				bySrc[src] = d
			}
		}
		var exprs []*lp.Expr
		for v, e := range bySrc {
			if e != nil {
				exprs = append(exprs, e)
				bySrc[v] = nil
			}
		}
		if len(exprs) > 0 {
			blocks = append(blocks, cpBlock{l: l.ID, c: c, exprs: exprs})
		}
	}
	for _, blk := range blocks {
		use := b.usageExpr(blk.l)
		name := fmt.Sprintf("cp[e%d]", blk.l)
		b.msum(blk.exprs, b.in.Prot.Kc, true, name, func(sum *lp.Expr) {
			b.addCPConstraint(name, blk.l, use.Clone().AddExpr(1, sum), blk.c)
		})
	}
}

// addCPConstraint installs a control-plane safety bound for link l: a hard
// capacity constraint for MaxThroughput, the fault-MLU coupling for MinMLU
// (§5.4), or the expandable form for PlanCapacity. The MLUfault and
// expansion variables are created on first use.
func (b *builder) addCPConstraint(name string, l topology.LinkID, load *lp.Expr, c float64) {
	switch b.s.Opts.Objective {
	case MinMLU:
		if !b.haveMLUFault {
			b.mluFaultVar = b.model.NewVar("MLUfault", 0, lp.Inf)
			b.haveMLUFault = true
		}
		load.Add(-c, b.mluFaultVar)
		b.model.AddNamed(name, load, lp.LE, 0)
	case PlanCapacity:
		load.Add(-1, b.expandVar(l))
		b.model.AddNamed(name, load, lp.LE, c)
	default:
		b.model.AddNamed(name, load, lp.LE, c)
	}
}

func (b *builder) objective() {
	switch b.s.Opts.Objective {
	case MinMLU:
		obj := lp.NewExpr().Add(1, b.mluVar)
		if b.haveMLUFault {
			obj.Add(mluSigma, b.mluFaultVar)
		}
		b.model.Minimize(obj)
	case PlanCapacity:
		obj := lp.NewExpr()
		for l, v := range b.capVar {
			if v < 0 {
				continue
			}
			cost := 1.0
			if b.s.Opts.CapacityCost != nil {
				cost = b.s.Opts.CapacityCost(topology.LinkID(l))
			}
			obj.Add(cost, v)
		}
		b.model.Minimize(obj)
	default:
		obj := lp.NewExpr()
		for _, i := range b.flows {
			obj.Add(1, b.fv[i].b)
		}
		b.model.Maximize(obj)
	}
}

// extract reads the solved LP back into a State.
func (b *builder) extract(sol *lp.Solution) *State {
	st := NewState()
	for _, i := range b.flows {
		f, fv := b.s.flows[i], &b.fv[i]
		rate := clampTiny(sol.Value(fv.b))
		st.Rate[f] = rate
		alloc := make([]float64, len(fv.alive))
		for t := range alloc {
			if !fv.mice {
				alloc[t] = clampTiny(sol.Value(fv.a[t]))
			} else if fv.alive[t] {
				alloc[t] = clampTiny(fv.coef * rate)
			}
		}
		st.Alloc[f] = alloc
	}
	return st
}

func clampTiny(v float64) float64 {
	if v < 1e-9 && v > -1e-9 {
		return 0
	}
	return v
}
