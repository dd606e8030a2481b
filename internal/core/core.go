// Package core implements the paper's contribution: FFC traffic
// engineering. It builds linear programs that compute tunnel-level traffic
// allocations guaranteed congestion-free under arbitrary combinations of up
// to kc control-plane faults (switches stuck on their previous
// configuration), ke link failures, and kv switch failures (with ingress
// switches proportionally rescaling onto residual tunnels).
//
// The basic TE formulation is Eqns 1–4 of the paper; control-plane FFC is
// Eqns 5–8 reduced via the bounded M-sum transformation to Eqn 14;
// data-plane FFC is Eqn 9 reduced to Eqn 15 (sound, and exact for disjoint
// layouts — Lemma 1). The combinatorially many fault cases are encoded in
// O(k·n) constraints with partial sorting networks (internal/sortnet);
// a compact top-k dual encoding and a naive full enumeration are available
// for ablation and validation.
//
// Extensions: multi-priority cascades (§5.1), congestion-free multi-step
// updates robust to update failures (§5.2), approximate max-min fairness
// (§5.3), minimize-MLU TE for networks without rate control (§5.4),
// rate-limiter fault models (§5.5), and uncertain current state (§5.6).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ffc/internal/demand"
	"ffc/internal/lp"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// Protection is the FFC protection level (kc, ke, kv).
type Protection struct {
	// Kc is the number of switch configuration (control-plane) faults to
	// tolerate.
	Kc int
	// Ke is the number of link (data-plane) failures to tolerate.
	Ke int
	// Kv is the number of switch (data-plane) failures to tolerate.
	Kv int
}

// None is the zero protection level (plain TE).
var None = Protection{}

func (p Protection) String() string { return fmt.Sprintf("(%d,%d,%d)", p.Kc, p.Ke, p.Kv) }

// Encoding selects how bounded M-sum constraints are emitted.
type Encoding int

const (
	// SortNet uses the paper's partial bubble sorting network (§4.4.2).
	SortNet Encoding = iota
	// Compact uses the top-k dual (CVaR-style) encoding: exactly the same
	// feasible region with N+1 variables and N constraints per bound.
	Compact
	// Naive enumerates every fault case explicitly — intractable beyond
	// tiny networks; exists to demonstrate exactly that (Table 2's
	// ">12 hours" contrast) and to validate the reductions.
	Naive
)

func (e Encoding) String() string {
	switch e {
	case SortNet:
		return "sortnet"
	case Compact:
		return "compact"
	case Naive:
		return "naive"
	}
	return "?"
}

// RateLimiterMode models whether rate-limiter updates can also fail (§5.5).
type RateLimiterMode int

const (
	// LimitersSynced assumes rate-limiter updates always succeed (Eqn 8):
	// a stale switch splits the *new* rate with *old* weights.
	LimitersSynced RateLimiterMode = iota
	// LimitersOrdered assumes switches and limiters are updated in the
	// congestion-safe order of SWAN (Eqn 18): βf,t = max(a'f,t, af,t).
	LimitersOrdered
	// LimitersIndependent allows limiter and switch updates to fail
	// independently (Eqn 17). The old-rate×new-weights cross term is
	// bilinear in the LP variables; it is handled soundly by requiring
	// each previously-active flow's allocation to keep covering its old
	// rate (Σ_t a_{f,t} ≥ b'f), which makes w_t·b'f ≤ a_{f,t} ≤ β_{f,t}
	// per tunnel. A shrinking flow therefore releases its link
	// reservation only after its rate limiter is confirmed updated.
	LimitersIndependent
)

// Objective selects the TE goal.
type Objective int

const (
	// MaxThroughput maximizes Σ bf (Eqn 1), the default.
	MaxThroughput Objective = iota
	// MinMLU minimizes maximum link utilization for networks that cannot
	// rate-control flows (§5.4); bf ≡ df and links may exceed capacity.
	MinMLU
	// PlanCapacity is the §3.3 provisioning use case: carry the full
	// demand (bf ≡ df) and minimize the total extra link capacity needed
	// for the requested protection level. The per-link additions are
	// returned in Stats.AddedCapacity.
	PlanCapacity
)

// Options tunes the solver.
type Options struct {
	// Encoding of bounded M-sum constraints; default SortNet.
	Encoding Encoding
	// RateLimiter fault model; default LimitersSynced.
	RateLimiter RateLimiterMode
	// Objective; default MaxThroughput.
	Objective Objective
	// MLUSigma is §5.4's σ weighting fault-case MLU; default 0.5.
	MLUSigma float64
	// MiceFraction: flows collectively carrying up to this fraction of
	// total demand are "mice" whose tunnel split is fixed to uniform
	// (§6), removing their a-variables. Default 0 (disabled); the
	// experiment harness sets 0.01.
	MiceFraction float64
	// OldLoadSkip: sources whose previous traffic on a link is below this
	// fraction of capacity are ignored in that link's control-plane
	// constraint (§6). Default 0 (disabled); the harness sets 1e-5.
	OldLoadSkip float64
	// CapacityCost weights each link's expansion in the PlanCapacity
	// objective (e.g. proportional to fiber distance). Nil means unit
	// cost per capacity unit.
	CapacityCost func(topology.LinkID) float64
	// WeightSkip: old tunnel-splitting weights below this threshold are
	// treated as zero in control-plane FFC (in the spirit of §6's
	// negligible-load skips). A stale switch can then overload a link by
	// at most Σ_f |Tf|·WeightSkip·bf beyond the guarantee — set 0 (the
	// default) for exactness; the experiment harness uses 1e-3.
	WeightSkip float64
	// SolveBudget is the default wall-clock budget per computation
	// (formulation + simplex); 0 means unlimited. Warm-started Session
	// re-solves (template rebound, previous basis held) get SolveBudget/4 —
	// they normally finish in a few iterations, and a pathological re-solve
	// must not eat the control interval; a solve that rebuilds the model
	// gets all of it. Input.Budget.Deadline overrides per computation.
	SolveBudget time.Duration
}

// Uncertain describes a flow whose current configuration is unknown between
// two candidate configurations (§5.6): the update from (AllocOlder,
// RateOlder) to the entry in Input.Prev may or may not have been applied.
type Uncertain struct {
	AllocOlder []float64
	RateOlder  float64
}

// Input is one TE computation request.
type Input struct {
	// Demands gives df per flow. Flows must exist in the solver's tunnel
	// set.
	Demands demand.Matrix
	// Prot is the protection level.
	Prot Protection
	// Prev is the currently installed configuration; required when
	// Prot.Kc > 0 (control-plane FFC is relative to the old state).
	Prev *State
	// Capacity overrides link capacities (e.g. residual capacity in
	// priority cascades); nil uses the topology's.
	Capacity map[topology.LinkID]float64
	// Uncertain marks flows with unconfirmed configuration (§5.6). Such
	// flows are re-pinned to Prev's configuration and both old
	// configurations are planned for.
	Uncertain map[tunnel.Flow]Uncertain
	// RateCaps further upper-bounds bf per flow (used by max-min
	// fairness iterations); nil means no extra caps.
	RateCaps map[tunnel.Flow]float64
	// FixedRates pins bf exactly (frozen flows in fairness iterations).
	FixedRates map[tunnel.Flow]float64
	// RateFloors lower-bounds bf per flow (the previous iteration's
	// guarantee in max-min fairness). Floors above the effective upper
	// bound are clamped down to it.
	RateFloors map[tunnel.Flow]float64
	// DownLinks and DownSwitches mark elements currently failed (faults
	// persisting from earlier intervals). Tunnels crossing them get zero
	// allocation, and the residual-tunnel bound τf is computed over the
	// surviving tunnels only.
	DownLinks    map[topology.LinkID]bool
	DownSwitches map[topology.SwitchID]bool
	// Demand extends protection to demand mispredictions (§9's future-work
	// direction); only meaningful with the MinMLU objective.
	Demand DemandUncertainty
	// Budget bounds this computation (deadline, iteration cap,
	// cancellation); see Budget. The zero value defers to the solver's
	// Options.SolveBudget.
	Budget Budget
}

// aliveTunnels returns which of f's tunnels survive the input's down sets
// (all true when nothing is down).
func (in *Input) aliveTunnels(net *topology.Network, set *tunnel.Set, f tunnel.Flow) []bool {
	ts := set.Tunnels(f)
	alive := make([]bool, len(ts))
	for i, t := range ts {
		alive[i] = t.Alive(net, in.DownLinks, in.DownSwitches)
	}
	return alive
}

// State is one TE configuration: per-flow granted rate and per-tunnel
// allocation (the paper's {bf} and {af,t}).
type State struct {
	Rate  map[tunnel.Flow]float64
	Alloc map[tunnel.Flow][]float64
}

// NewState returns an empty configuration.
func NewState() *State {
	return &State{Rate: map[tunnel.Flow]float64{}, Alloc: map[tunnel.Flow][]float64{}}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := NewState()
	for f, r := range s.Rate {
		c.Rate[f] = r
	}
	for f, a := range s.Alloc {
		c.Alloc[f] = append([]float64(nil), a...)
	}
	return c
}

// Weights returns the tunnel splitting weights installed for f.
func (s *State) Weights(f tunnel.Flow) []float64 { return tunnel.Weights(s.Alloc[f]) }

// sortedFlows returns m's keys in deterministic order. Every accumulation
// over a State iterates through it: floating-point sums must add in a fixed
// order, or run-to-run ULP noise leaks into anything compared against a
// boundary (the control-plane formulation skips links whose previous load
// already exceeds capacity — and a plain-TE previous state sits exactly at
// capacity on its bottleneck links).
func sortedFlows(m map[tunnel.Flow]float64) []tunnel.Flow {
	flows := make([]tunnel.Flow, 0, len(m))
	for f := range m {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	return flows
}

// TotalRate sums granted rates (in deterministic flow order, so repeated
// runs accumulate identical floating-point results).
func (s *State) TotalRate() float64 {
	var t float64
	for _, f := range sortedFlows(s.Rate) {
		t += s.Rate[f]
	}
	return t
}

// LinkLoads returns the no-fault load each link carries under allocation
// {af,t} (upper bound on actual traffic; actual is weights×rate).
// Accumulation is in deterministic flow order (see sortedFlows).
func (s *State) LinkLoads(set *tunnel.Set) map[topology.LinkID]float64 {
	loads := map[topology.LinkID]float64{}
	flows := make([]tunnel.Flow, 0, len(s.Alloc))
	for f := range s.Alloc {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].Src != flows[j].Src {
			return flows[i].Src < flows[j].Src
		}
		return flows[i].Dst < flows[j].Dst
	})
	for _, f := range flows {
		alloc := s.Alloc[f]
		for _, t := range set.Tunnels(f) {
			if t.Index >= len(alloc) {
				continue
			}
			a := alloc[t.Index]
			if a == 0 {
				continue
			}
			for _, l := range t.Links {
				loads[l] += a
			}
		}
	}
	return loads
}

// ActualLinkLoads returns the traffic each link carries when every flow
// sends Rate[f] split by Weights(f) (Σ loads = Σ rates per flow).
// Accumulation is in deterministic flow order (see sortedFlows): the
// control-plane formulation compares these loads against capacity, and the
// skip decision must not depend on map iteration order.
func (s *State) ActualLinkLoads(set *tunnel.Set) map[topology.LinkID]float64 {
	loads := map[topology.LinkID]float64{}
	for _, f := range sortedFlows(s.Rate) {
		r := s.Rate[f]
		if r == 0 {
			continue
		}
		w := s.Weights(f)
		for _, t := range set.Tunnels(f) {
			if t.Index >= len(w) || w[t.Index] == 0 {
				continue
			}
			for _, l := range t.Links {
				loads[l] += r * w[t.Index]
			}
		}
	}
	return loads
}

// Stats reports solver work for one computation.
type Stats struct {
	Status lp.Status
	// Outcome classifies the computation for control-loop decisions
	// (optimal / budget-hit / infeasible / solver-error). It is set on
	// every return path, including errors.
	Outcome     Outcome
	Objective   float64
	Vars        int
	Constraints int
	// EncodingVars/EncodingConstraints count only the sorting-network (or
	// alternative) auxiliaries, the paper's §4.4.3 accounting.
	EncodingVars        int
	EncodingConstraints int
	Iters               int
	SolveTime           time.Duration
	// BuildTime is the slice of SolveTime spent constructing the LP
	// (formulation and encoding) before the simplex ran.
	BuildTime time.Duration
	// LP breaks down the simplex work (dual / Phase I / Phase II iteration
	// split, reinversions, warm start or fallback, basis fill-in).
	LP lp.SolveStats
	// MLU is the max link utilization of the result (MinMLU objective).
	MLU float64
	// FaultMLU is the planned worst-case link utilization under the
	// protected fault/misprediction cases (MinMLU objective with kc > 0 or
	// demand uncertainty; 0 otherwise).
	FaultMLU float64
	// LinkShadowPrice maps each capacity-constrained link to its dual
	// value: the marginal throughput gained per unit of extra capacity
	// (MaxThroughput objective only; links whose constraint is slack are
	// omitted or zero).
	LinkShadowPrice map[topology.LinkID]float64
	// AddedCapacity is the per-link capacity expansion chosen by the
	// PlanCapacity objective (zero entries omitted).
	AddedCapacity map[topology.LinkID]float64
	// Warm marks solves whose simplex started from a previous basis
	// (Session solves only).
	Warm bool
	// ModelReused marks Session solves that rebound the cached LP in place
	// (bounds/RHS mutation) instead of re-formulating it.
	ModelReused bool
}

// Solver computes FFC TE configurations over a fixed network + tunnel set.
type Solver struct {
	Net  *topology.Network
	Tun  *tunnel.Set
	Opts Options

	// Cached incidence: for every directed link, the (flow, tunnel) pairs
	// crossing it.
	incidence map[topology.LinkID][]flowTunnel
	// Cached (p,q) per flow.
	pq map[tunnel.Flow][2]int
}

type flowTunnel struct {
	flow tunnel.Flow
	idx  int // tunnel index within the flow
}

// NewSolver builds a solver. The tunnel set must cover every flow that will
// appear in inputs.
func NewSolver(net *topology.Network, tun *tunnel.Set, opts Options) *Solver {
	if opts.MLUSigma == 0 {
		opts.MLUSigma = 0.5
	}
	s := &Solver{Net: net, Tun: tun, Opts: opts,
		incidence: map[topology.LinkID][]flowTunnel{},
		pq:        map[tunnel.Flow][2]int{}}
	for _, f := range tun.All() {
		for _, t := range tun.Tunnels(f) {
			for _, l := range t.Links {
				s.incidence[l] = append(s.incidence[l], flowTunnel{f, t.Index})
			}
		}
		p, q := tun.PQ(f)
		s.pq[f] = [2]int{p, q}
	}
	return s
}

// capacity returns the effective capacity of link e for in.
func (s *Solver) capacity(in *Input, e topology.LinkID) float64 {
	if in.Capacity != nil {
		if c, ok := in.Capacity[e]; ok {
			return c
		}
	}
	return s.Net.Links[e].Capacity
}

// tauOf returns τf = |Tf| − ke·pf − kv·qf, the guaranteed number of residual
// tunnels for f under the protection level.
func (s *Solver) tauOf(f tunnel.Flow, prot Protection) int {
	nT := len(s.Tun.Tunnels(f))
	pq := s.pq[f]
	return nT - prot.Ke*pq[0] - prot.Kv*pq[1]
}

// tauAlive is tauOf restricted to the surviving tunnel subset: τ computed
// with (p,q) measured over alive tunnels only.
func (s *Solver) tauAlive(f tunnel.Flow, prot Protection, alive []bool) int {
	n := 0
	linkUse := map[topology.LinkID]int{}
	swUse := map[topology.SwitchID]int{}
	p, q := 0, 0
	for _, t := range s.Tun.Tunnels(f) {
		if !alive[t.Index] {
			continue
		}
		n++
		for _, l := range t.Links {
			cl := canonLink(s.Net, l)
			linkUse[cl]++
			if linkUse[cl] > p {
				p = linkUse[cl]
			}
		}
		for _, v := range t.Switches[1 : len(t.Switches)-1] {
			swUse[v]++
			if swUse[v] > q {
				q = swUse[v]
			}
		}
	}
	return n - prot.Ke*p - prot.Kv*q
}

// build validates in and formulates its LP from scratch — the one way a TE
// model is constructed.
func (s *Solver) build(in Input) (*builder, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	b := newBuilder(s, &in)
	if err := b.formulate(); err != nil {
		return nil, err
	}
	return b, nil
}

// FormulateOnly builds the LP for in and reports its size without solving
// it — used to quantify encodings whose solve would be impractical (the
// naive enumeration at scale).
func (s *Solver) FormulateOnly(in Input) (*Stats, error) {
	start := time.Now()
	b, err := s.build(in)
	if err != nil {
		return nil, err
	}
	return &Stats{
		Vars:                b.model.NumVars(),
		Constraints:         b.model.NumRows(),
		EncodingVars:        b.encVars,
		EncodingConstraints: b.encCons,
		SolveTime:           time.Since(start),
	}, nil
}

// Solve computes a TE configuration for in: a Session of length one, so a
// fresh model and a cold simplex start.
func (s *Solver) Solve(in Input) (*State, *Stats, error) { return s.NewSession().Solve(in) }

// Solve computes a TE configuration for in, reusing the session's cached
// model (rebound in place when in matches the template's structure) and
// warm-starting the simplex from the previous solve's basis.
//
// Error returns always carry non-nil Stats with Stats.Outcome set, so the
// control loop can choose its fallback; on a budget hit that reached
// feasibility, the best-so-far State is returned alongside the error.
// Panics escaping the formulation (including lp's internal-invariant
// checks) are recovered into a solver-error outcome; panics inside the
// simplex are already recovered at the lp boundary.
func (se *Session) Solve(in Input) (st *State, stats *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st = nil
			if stats == nil {
				stats = &Stats{}
			}
			stats.Outcome = OutcomeSolverError
			err = fmt.Errorf("core: TE solve panicked: %v", r)
		}
	}()
	s := se.s
	sp := obs.StartSpan("core.solve")
	build := sp.Child("build")
	start := time.Now()
	ws := se.warm
	// A bad input falls through to build, which reports it.
	reused := se.tmpl != nil && se.tmpl.Matches(&in) && in.validate() == nil
	if reused {
		se.tmpl.instantiate(in)
		obsTemplateHits.Inc()
	} else {
		fresh, err := s.build(in)
		if err != nil {
			return nil, &Stats{Outcome: OutcomeSolverError}, err
		}
		se.tmpl = newTemplate(s, fresh, in)
		obsTemplateMisses.Inc()
	}
	b := se.tmpl.b
	buildTime := time.Since(start)
	build.End()
	// The budget's deadline runs from start, so formulation time counts
	// against it — the controller's window covers the whole computation.
	opts := lp.SolveOpts{MaxIters: in.Budget.MaxIters, Ctx: in.Budget.Ctx, Hook: in.Budget.Hook}
	deadline := in.Budget.Deadline
	if deadline == 0 && s.Opts.SolveBudget > 0 {
		deadline = s.Opts.SolveBudget
		// Only a rebound template re-solves warm: a fresh formulation has
		// new dimensions, lp drops the held basis, and the cold simplex
		// that follows needs the whole budget.
		if reused && ws != nil {
			deadline /= warmBudgetDiv
		}
	}
	if deadline != 0 {
		opts.Deadline = start.Add(deadline)
	}
	lpSpan := sp.Child("lp")
	sol, err := b.model.SolveWith(ws, opts)
	lpSpan.End()
	if sol != nil && sol.Warm() != nil {
		se.warm = sol.Warm()
	}
	stats = &Stats{
		Vars:                b.model.NumVars(),
		Constraints:         b.model.NumRows(),
		EncodingVars:        b.encVars,
		EncodingConstraints: b.encCons,
		SolveTime:           time.Since(start),
		BuildTime:           buildTime,
		ModelReused:         reused,
		Outcome:             outcomeOf(sol, err),
	}
	if sol != nil {
		stats.Status = sol.Status
		stats.Objective = sol.Objective
		stats.Iters = sol.Iters
		stats.LP = sol.Stats
		stats.Warm = sol.Stats.Warm
	}
	if deadline > 0 && obs.Enabled() {
		obsSolveVsDeadline.Observe(int64(100 * stats.SolveTime / deadline))
	}
	if err != nil {
		sp.End()
		var be *lp.BudgetError
		if errors.As(err, &be) && be.Best != nil {
			// The budget hit after feasibility: hand back the best-so-far
			// plan with the error so the caller may install it rather than
			// fall back to the last-good configuration.
			st = b.extract(be.Best)
		}
		return st, stats, fmt.Errorf("core: TE solve failed: %w", err)
	}
	extract := sp.Child("extract")
	st = b.extract(sol)
	extract.End()
	defer sp.End()
	switch s.Opts.Objective {
	case MinMLU:
		stats.MLU = sol.Value(b.mluVar)
		if b.haveMLUFault {
			stats.FaultMLU = sol.Value(b.mluFaultVar)
		}
	case MaxThroughput:
		stats.LinkShadowPrice = map[topology.LinkID]float64{}
		for l, row := range b.capRow {
			if d := sol.Duals[row]; d > 1e-9 {
				stats.LinkShadowPrice[l] = d
			}
		}
	case PlanCapacity:
		stats.AddedCapacity = map[topology.LinkID]float64{}
		for l, v := range b.capVar {
			if x := sol.Value(v); x > 1e-9 {
				stats.AddedCapacity[l] = x
			}
		}
	}
	return st, stats, nil
}

// outcomeOf classifies an lp solve result (sol may be nil after a
// recovered solver panic).
func outcomeOf(sol *lp.Solution, err error) Outcome {
	switch {
	case err == nil:
		return OutcomeOptimal
	case sol == nil:
		return OutcomeSolverError
	case sol.Status == lp.BudgetExceeded || sol.Status == lp.IterLimit:
		return OutcomeBudgetHit
	case sol.Status == lp.Infeasible || sol.Status == lp.Unbounded:
		return OutcomeInfeasible
	}
	return OutcomeSolverError
}

// almostLE reports a ≤ b within the verification tolerance.
func almostLE(a, b float64) bool { return a <= b+1e-6*math.Max(1, math.Abs(b)) }
