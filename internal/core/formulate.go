package core

import (
	"fmt"
	"math"
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

	flows    []tunnel.Flow
	bVar     map[tunnel.Flow]lp.Var
	aVar     map[tunnel.Flow][]lp.Var // nil for mice flows
	mice     map[tunnel.Flow]bool
	miceCoef map[tunnel.Flow]float64 // per-tunnel share of bf for mice
	// betaVar caches β_{f,t} variables, created lazily per tunnel.
	betaVar map[tunnel.Flow][]lp.Var
	// alive[f][i] reports whether tunnel i of f survives the input's down
	// sets; aliveTau[f] is τf computed over surviving tunnels.
	alive    map[tunnel.Flow][]bool
	aliveTau map[tunnel.Flow]int

	encVars, encCons int
	mluVar           lp.Var
	mluFaultVar      lp.Var
	haveMLUFault     bool
	// capRow maps links to their Eqn 2 row (for shadow prices); capVar
	// maps links to their expansion variable (PlanCapacity objective).
	capRow map[topology.LinkID]int
	capVar map[topology.LinkID]lp.Var
}

func newBuilder(s *Solver, in *Input) *builder {
	return &builder{
		s: s, in: in, model: lp.NewModel(),
		bVar:     map[tunnel.Flow]lp.Var{},
		aVar:     map[tunnel.Flow][]lp.Var{},
		mice:     map[tunnel.Flow]bool{},
		miceCoef: map[tunnel.Flow]float64{},
		betaVar:  map[tunnel.Flow][]lp.Var{},
		alive:    map[tunnel.Flow][]bool{},
		aliveTau: map[tunnel.Flow]int{},
		capRow:   map[topology.LinkID]int{},
		capVar:   map[topology.LinkID]lp.Var{},
	}
}

// independentReservations handles Eqn 17's bilinear old-rate × new-weights
// term soundly: requiring Σ_t a_{f,t} ≥ b'f makes w_t·b'f ≤ a_t per tunnel
// (weights are a_t/Σa), so β ≥ a_t already covers it. The cost is that a
// shrinking flow's link reservation cannot drop below its old rate within
// one interval — exactly the capacity that must be held while the old rate
// limiter may still be live.
func (b *builder) independentReservations() {
	for _, f := range b.flows {
		old := b.in.Prev.Rate[f]
		if old <= 0 || b.mice[f] {
			continue
		}
		if _, ok := b.in.Uncertain[f]; ok {
			continue // pinned to the old configuration already
		}
		e := lp.NewExpr()
		for _, v := range b.aVar[f] {
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

// selectFlows picks flows with positive demand and at least one tunnel, in
// deterministic order.
func (b *builder) selectFlows() {
	for _, f := range b.in.Demands.Flows() {
		if b.in.Demands[f] <= 0 {
			continue
		}
		if len(b.s.Tun.Tunnels(f)) == 0 {
			continue
		}
		b.flows = append(b.flows, f)
		alive := b.in.aliveTunnels(b.s.Net, b.s.Tun, f)
		b.alive[f] = alive
		b.aliveTau[f] = b.s.tauAlive(f, b.in.Prot, alive)
	}
}

// selectMice marks miceOf's flows; their tunnel split is fixed to
// uniform-over-τf.
func (b *builder) selectMice() {
	for _, f := range b.miceOf(b.in) {
		b.mice[f] = true
		b.miceCoef[f] = 1 / float64(b.aliveTau[f])
	}
}

// miceOf returns the smallest of b's flows carrying at most MiceFraction of
// in's total demand (§6), in selection order. Beyond in it reads only b's
// flow list and τf, which the flow list, down sets and protection fix, so a
// template can ask whether a matching input keeps its frozen mice set.
func (b *builder) miceOf(in *Input) []tunnel.Flow {
	frac := b.s.Opts.MiceFraction
	if frac <= 0 {
		return nil
	}
	total := 0.0
	for _, f := range b.flows {
		total += in.Demands[f]
	}
	order := append([]tunnel.Flow(nil), b.flows...)
	sort.Slice(order, func(i, j int) bool { return in.Demands[order[i]] < in.Demands[order[j]] })
	budget := frac * total
	var mice []tunnel.Flow
	for _, f := range order {
		d := in.Demands[f]
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
		if b.aliveTau[f] <= 0 {
			continue // flow will be zeroed anyway
		}
		budget -= d
		mice = append(mice, f)
	}
	return mice
}

// rateBounds derives bf's bounds from the current input (a pure function
// of values, given fixed flow structure — Session.rebind reuses it to
// re-bound a cached model without re-formulating).
func (b *builder) rateBounds(f tunnel.Flow) (lo, hi float64) {
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
	if b.aliveTau[f] <= 0 {
		// Worst-case faults can kill every surviving tunnel: the flow
		// cannot be admitted under this protection level (§4.3).
		lo, hi = 0, 0
	}
	return lo, hi
}

// allocBounds derives a_{f,t}'s bounds from the current input (also reused
// by Session.rebind).
func (b *builder) allocBounds(f tunnel.Flow, i int) (alo, ahi float64) {
	alo, ahi = 0, lp.Inf
	if _, ok := b.in.Uncertain[f]; ok {
		prev := 0.0
		if pa := b.in.Prev.Alloc[f]; i < len(pa) {
			prev = pa[i]
		}
		alo, ahi = prev, prev
	}
	if !b.alive[f][i] {
		alo, ahi = 0, 0 // tunnel is currently down
	}
	return alo, ahi
}

func (b *builder) createVars() {
	for _, f := range b.flows {
		lo, hi := b.rateBounds(f)
		b.bVar[f] = b.model.NewVar(fmt.Sprintf("b[%v]", f), lo, hi)

		if b.mice[f] {
			b.aVar[f] = nil
			continue
		}
		ts := b.s.Tun.Tunnels(f)
		as := make([]lp.Var, len(ts))
		for i := range ts {
			alo, ahi := b.allocBounds(f, i)
			as[i] = b.model.NewVar(fmt.Sprintf("a[%v,%d]", f, i), alo, ahi)
		}
		b.aVar[f] = as
	}
}

// allocExpr returns the allocation a_{f,t} as an expression (variable, or
// mice coefficient on bf).
func (b *builder) allocExpr(f tunnel.Flow, t int) *lp.Expr {
	if b.mice[f] {
		return lp.NewExpr().Add(b.miceCoef[f], b.bVar[f])
	}
	return lp.NewExpr().Add(1, b.aVar[f][t])
}

// usageExpr builds Σ_{f,t crossing e} a_{f,t} for link e.
func (b *builder) usageExpr(e topology.LinkID) *lp.Expr {
	expr := lp.NewExpr()
	for _, ft := range b.s.incidence[e] {
		if _, ok := b.bVar[ft.flow]; !ok {
			continue // flow not in this computation
		}
		if !b.alive[ft.flow][ft.idx] {
			continue // down tunnel carries nothing
		}
		if b.mice[ft.flow] {
			expr.Add(b.miceCoef[ft.flow], b.bVar[ft.flow])
		} else {
			expr.Add(1, b.aVar[ft.flow][ft.idx])
		}
	}
	return expr
}

// coverageConstraints emits Eqn 3: Σ_t a_{f,t} ≥ bf.
func (b *builder) coverageConstraints() {
	for _, f := range b.flows {
		if b.mice[f] {
			continue // |Tf|·bf/τf ≥ bf holds by construction
		}
		e := lp.NewExpr()
		for _, v := range b.aVar[f] {
			e.Add(1, v)
		}
		e.Add(-1, b.bVar[f])
		b.model.AddNamed(fmt.Sprintf("cover[%v]", f), e, lp.GE, 0)
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
	if v, ok := b.capVar[l]; ok {
		return v
	}
	v := b.model.NewVar(fmt.Sprintf("x[e%d]", l), 0, lp.Inf)
	b.capVar[l] = v
	return v
}

// dataPlane emits Eqn 15 (or the naive Eqn 9 enumeration) per flow.
func (b *builder) dataPlane() {
	prot := b.in.Prot
	if prot.Ke == 0 && prot.Kv == 0 {
		return
	}
	for _, f := range b.flows {
		if b.mice[f] {
			continue // uniform split satisfies Eqn 15 by construction
		}
		var aliveTs []*tunnel.Tunnel
		for _, t := range b.s.Tun.Tunnels(f) {
			if b.alive[f][t.Index] {
				aliveTs = append(aliveTs, t)
			}
		}
		tau := b.aliveTau[f]
		if tau <= 0 {
			continue // bf already fixed to 0
		}
		if tau >= len(aliveTs) {
			continue // no tunnel can be lost at this protection level
		}
		if b.s.Opts.Encoding == Naive {
			b.encCons += b.dataPlaneNaive(f, aliveTs, prot)
			continue
		}
		exprs := make([]*lp.Expr, len(aliveTs))
		for i, t := range aliveTs {
			exprs[i] = lp.NewExpr().Add(1, b.aVar[f][t.Index])
		}
		drop := len(aliveTs) - tau
		rhs := lp.NewExpr().Add(1, b.bVar[f])
		name := fmt.Sprintf("dp[%v]", f)
		var res sortnet.Result
		if tau <= drop {
			// Encode the smallest τ directly: Σ smallest-τ a ≥ bf.
			if b.s.Opts.Encoding == Compact {
				res = sortnet.BottomKCompact(b.model, exprs, tau, name)
			} else {
				res = sortnet.SmallestSum(b.model, exprs, tau, name)
			}
			b.model.AddNamed(name, lp.NewExpr().AddExpr(1, res.Sum).AddExpr(-1, rhs), lp.GE, 0)
		} else {
			// Cheaper dual form: Σ all − Σ largest-(|T|−τ) ≥ bf.
			if b.s.Opts.Encoding == Compact {
				res = sortnet.TopKCompact(b.model, exprs, drop, name)
			} else {
				res = sortnet.LargestSum(b.model, exprs, drop, name)
			}
			total := lp.NewExpr()
			for _, t := range aliveTs {
				total.Add(1, b.aVar[f][t.Index])
			}
			total.AddExpr(-1, res.Sum).AddExpr(-1, rhs)
			b.model.AddNamed(name, total, lp.GE, 0)
		}
		b.encVars += res.Vars
		b.encCons += res.Constraints + 1
	}
}

// dataPlaneNaive enumerates Eqn 9's fault cases for one flow: every
// combination of Ke physical links and Kv switches drawn from the elements
// the flow's tunnels actually traverse. Returns the constraint count.
func (b *builder) dataPlaneNaive(f tunnel.Flow, ts []*tunnel.Tunnel, prot Protection) int {
	// Collect candidate physical links and intermediate switches.
	linkSet := map[topology.LinkID]bool{}
	swSet := map[topology.SwitchID]bool{}
	for _, t := range ts {
		for _, l := range t.Links {
			linkSet[canonLink(b.s.Net, l)] = true
		}
		for _, v := range t.Switches[1 : len(t.Switches)-1] {
			swSet[v] = true
		}
	}
	links := sortedLinks(linkSet)
	sws := sortedSwitches(swSet)

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
	forEachCombo(len(links), ke, func(li []int) {
		down := map[topology.LinkID]bool{}
		for _, i := range li {
			down[links[i]] = true
			if tw := b.s.Net.Links[links[i]].Twin; tw != topology.None {
				down[tw] = true
			}
		}
		forEachCombo(len(sws), kv, func(si []int) {
			downSw := map[topology.SwitchID]bool{}
			for _, i := range si {
				downSw[sws[i]] = true
			}
			e := lp.NewExpr()
			for _, t := range ts {
				if t.Alive(b.s.Net, down, downSw) {
					e.Add(1, b.aVar[f][t.Index])
				}
			}
			e.Add(-1, b.bVar[f])
			b.model.AddNamed(fmt.Sprintf("dp9[%v]", f), e, lp.GE, 0)
			cons++
		})
	})
	return cons
}

// betaMinusAlpha returns (β_{f,t} − a_{f,t}) as an expression for the
// configured rate-limiter mode, or nil when the difference is identically
// zero. Lazily creates β variables for non-mice flows.
func (b *builder) betaMinusAlpha(f tunnel.Flow, t int) *lp.Expr {
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

	if b.mice[f] {
		// β − a = (max(w', 1/τ) − 1/τ)·bf, a constant coefficient on bf.
		c := b.miceCoef[f]
		var coef float64
		switch b.s.Opts.RateLimiter {
		case LimitersOrdered:
			// β = max(a', a) with a = c·bf: a constant part max(a'−c·bf,0)
			// is not linear; fall back to the synced shape which dominates
			// it when weights persist. For mice this conservative choice
			// is negligible by construction.
			coef = math.Max(oldWeight, c) - c
		default:
			coef = math.Max(oldWeight, c) - c
		}
		if coef <= 0 {
			return nil
		}
		return lp.NewExpr().Add(coef, b.bVar[f])
	}

	var needs []func(beta lp.Var)
	switch b.s.Opts.RateLimiter {
	case LimitersSynced:
		// Eqn 8: β ≥ w'·bf, β ≥ a.
		if oldWeight <= 0 {
			return nil // β = a exactly; contributes nothing
		}
		needs = append(needs, func(beta lp.Var) {
			b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-oldWeight, b.bVar[f]), 0)
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
				b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-oldWeight, b.bVar[f]), 0)
			}
		})
	}

	// Create (or reuse) the β variable for this tunnel.
	bs := b.betaVar[f]
	if bs == nil {
		bs = make([]lp.Var, len(b.s.Tun.Tunnels(f)))
		for i := range bs {
			bs[i] = -1
		}
		b.betaVar[f] = bs
	}
	if bs[t] < 0 {
		beta := b.model.NewVar(fmt.Sprintf("beta[%v,%d]", f, t), 0, lp.Inf)
		bs[t] = beta
		b.model.AddGE(lp.NewExpr().Add(1, beta).Add(-1, b.aVar[f][t]), 0)
		b.encCons++
		for _, add := range needs {
			add(beta)
			b.encCons++
		}
		b.encVars++
	}
	return lp.NewExpr().Add(1, lp.Var(bs[t])).Add(-1, b.aVar[f][t])
}

func idx(s []float64, i int) float64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// controlPlane emits Eqn 14 per link (or the naive Eqn 5 enumeration). A β
// variable and its defining rows are shared by every link its tunnel
// crosses, so a first pass in link order creates them all, along with each
// link's sorted (β−a) source grouping; the second pass emits the per-link
// M-sum encodings and safety rows.
func (b *builder) controlPlane() {
	prev := b.in.Prev
	prevLoads := prev.ActualLinkLoads(b.s.Tun)
	type cpBlock struct {
		l     topology.LinkID
		c     float64
		exprs []*lp.Expr
		kc    int
	}
	var blocks []cpBlock
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
		bySrc := map[topology.SwitchID]*lp.Expr{}
		for _, ft := range inc {
			if _, ok := b.bVar[ft.flow]; !ok {
				continue
			}
			d := b.betaMinusAlpha(ft.flow, ft.idx)
			if d == nil {
				continue
			}
			if e := bySrc[ft.flow.Src]; e != nil {
				e.AddExpr(1, d)
			} else {
				bySrc[ft.flow.Src] = d
			}
		}
		if len(bySrc) == 0 {
			continue
		}
		srcs := make([]topology.SwitchID, 0, len(bySrc))
		for v := range bySrc {
			srcs = append(srcs, v)
		}
		sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] }) // determinism
		exprs := make([]*lp.Expr, len(srcs))
		for i, v := range srcs {
			exprs[i] = bySrc[v]
		}

		kc := b.in.Prot.Kc
		if kc > len(exprs) {
			kc = len(exprs)
		}
		blocks = append(blocks, cpBlock{l: l.ID, c: c, exprs: exprs, kc: kc})
	}
	for _, blk := range blocks {
		use := b.usageExpr(blk.l)
		name := fmt.Sprintf("cp[e%d]", blk.l)
		if b.s.Opts.Encoding == Naive {
			// Eqn 5/13 directly: every ≤kc subset. d ≥ 0, so only
			// maximal subsets are needed.
			forEachCombo(len(blk.exprs), blk.kc, func(sel []int) {
				e := use.Clone()
				for _, j := range sel {
					e.AddExpr(1, blk.exprs[j])
				}
				b.addCPConstraint(name, blk.l, e, blk.c)
				b.encCons++
			})
			continue
		}
		var res sortnet.Result
		if b.s.Opts.Encoding == Compact {
			res = sortnet.TopKCompact(b.model, blk.exprs, blk.kc, name)
		} else {
			res = sortnet.LargestSum(b.model, blk.exprs, blk.kc, name)
		}
		b.encVars += res.Vars
		b.encCons += res.Constraints + 1
		b.addCPConstraint(name, blk.l, use.AddExpr(1, res.Sum), blk.c)
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
			cost := 1.0
			if b.s.Opts.CapacityCost != nil {
				cost = b.s.Opts.CapacityCost(l)
			}
			obj.Add(cost, v)
		}
		b.model.Minimize(obj)
	default:
		obj := lp.NewExpr()
		for _, f := range b.flows {
			obj.Add(1, b.bVar[f])
		}
		b.model.Maximize(obj)
	}
}

// extract reads the solved LP back into a State.
func (b *builder) extract(sol *lp.Solution) *State {
	st := NewState()
	for _, f := range b.flows {
		rate := clampTiny(sol.Value(b.bVar[f]))
		st.Rate[f] = rate
		ts := b.s.Tun.Tunnels(f)
		alloc := make([]float64, len(ts))
		if b.mice[f] {
			for i := range alloc {
				if b.alive[f][i] {
					alloc[i] = clampTiny(b.miceCoef[f] * rate)
				}
			}
		} else {
			for i := range alloc {
				alloc[i] = clampTiny(sol.Value(b.aVar[f][i]))
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

func canonLink(net *topology.Network, l topology.LinkID) topology.LinkID {
	if tw := net.Links[l].Twin; tw != topology.None && tw < l {
		return tw
	}
	return l
}

func sortedLinks(m map[topology.LinkID]bool) []topology.LinkID {
	out := make([]topology.LinkID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedSwitches(m map[topology.SwitchID]bool) []topology.SwitchID {
	out := make([]topology.SwitchID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// forEachCombo calls fn with every size-k index combination from [0,n).
// k = 0 yields the empty combination once.
func forEachCombo(n, k int, fn func([]int)) {
	if k > n {
		k = n
	}
	sel := make([]int, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			fn(sel)
			return
		}
		for i := start; i <= n-(k-pos); i++ {
			sel[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
}
