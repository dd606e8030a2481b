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
// layouts — Lemma 1). Every bounded M-sum ("any k of these terms sum to
// ≤ B") goes through the one internal/sortnet emitter that Options.Encoding
// names, resolved once in NewSolver: the compact top-k dual (production),
// the paper's partial sorting network (O(k·n) constraints, the reference),
// or explicit enumeration (tiny networks; Naive also enumerates Eqn 9's
// data-plane fault cases, the ground truth the reductions are tested
// against).
//
// Extensions: multi-priority cascades (§5.1), congestion-free multi-step
// updates robust to update failures (§5.2), approximate max-min fairness
// (§5.3), minimize-MLU TE for networks without rate control (§5.4),
// rate-limiter fault models (§5.5), and uncertain current state (§5.6).
package core

import (
	"errors"
	"fmt"
	"time"

	"ffc/internal/demand"
	"ffc/internal/lp"
	"ffc/internal/obs"
	"ffc/internal/sortnet"
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
	// Compact uses the top-k dual (CVaR-style) encoding: exactly the same
	// feasible region as SortNet with N+1 variables and N constraints per
	// bound. It is the zero value and the one production encoding.
	Compact Encoding = iota
	// SortNet uses the paper's partial bubble sorting network (§4.4.2):
	// the reference formulation, reached only by explicit request (the
	// encoding ablation and the cross-encoding tests).
	SortNet
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
	// Encoding of bounded M-sum constraints; the zero value is Compact.
	Encoding Encoding
	// RateLimiter fault model; default LimitersSynced.
	RateLimiter RateLimiterMode
	// Objective; default MaxThroughput.
	Objective Objective
	// MiceFraction: flows collectively carrying up to this fraction of
	// total demand are "mice" whose tunnel split is fixed to uniform
	// (§6), removing their a-variables. Default 0 (disabled); ffcd,
	// ffcte, topogen's calibration and the experiment harness set 0.01.
	MiceFraction float64
	// CapacityCost weights each link's expansion in the PlanCapacity
	// objective (e.g. proportional to fiber distance). Nil means unit
	// cost per capacity unit.
	CapacityCost func(topology.LinkID) float64
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
	// cancellation); see Budget. The zero value imposes nothing.
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

// TotalRate sums granted rates (in deterministic flow order, so repeated
// runs accumulate identical floating-point results).
func (s *State) TotalRate() float64 {
	var t float64
	for _, f := range tunnel.SortedFlows(s.Rate) {
		t += s.Rate[f]
	}
	return t
}

// LinkLoads returns the no-fault load each link carries under allocation
// {af,t} (upper bound on actual traffic; actual is weights×rate).
// Accumulation is in deterministic flow order (tunnel.SortedFlows).
func (s *State) LinkLoads(set *tunnel.Set) map[topology.LinkID]float64 {
	loads := map[topology.LinkID]float64{}
	for _, f := range tunnel.SortedFlows(s.Alloc) {
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
// Accumulation is in deterministic flow order (tunnel.SortedFlows): the
// control-plane formulation compares these loads against capacity — and a
// plain-TE previous state sits exactly at capacity on its bottleneck links
// — so the skip decision must not depend on map iteration order.
func (s *State) ActualLinkLoads(set *tunnel.Set) map[topology.LinkID]float64 {
	loads := map[topology.LinkID]float64{}
	for _, f := range tunnel.SortedFlows(s.Rate) {
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
	// EncodingVars/EncodingConstraints count the fault-protection rows and
	// auxiliaries, the paper's §4.4.3 accounting: every M-sum emitter's
	// auxiliaries plus one constraint per bound row it asks for, Naive's
	// explicit Eqn 9 rows, control-plane β rows and Eqn 17 reservations.
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

	// flows are the tunnel set's flows that have at least one tunnel, in
	// canonical (Src, Dst) order; a flow's position is its flow index.
	flows []tunnel.Flow
	// incidence, by LinkID: the (flow index, tunnel) pairs crossing each
	// directed link, in tunnel-set order (so a flow's pairs are adjacent).
	incidence [][]flowTunnel

	// msum emits every bounded M-sum, per Options.Encoding; naiveDP
	// enumerates the data plane's Eqn 9 fault cases instead of Eqn 15.
	// encErr rejects an unknown encoding at every formulation.
	msum    sortnet.Emitter
	naiveDP bool
	encErr  error
}

type flowTunnel struct {
	flow int // index into Solver.flows
	idx  int // tunnel index within the flow
}

// NewSolver builds a solver. The tunnel set must cover every flow that will
// appear in inputs.
func NewSolver(net *topology.Network, tun *tunnel.Set, opts Options) *Solver {
	s := &Solver{Net: net, Tun: tun, Opts: opts, incidence: make([][]flowTunnel, len(net.Links))}
	switch opts.Encoding {
	case Compact:
		s.msum = sortnet.Compact
	case SortNet:
		s.msum = sortnet.Bubble
	case Naive:
		s.msum, s.naiveDP = sortnet.Subsets, true
	default:
		s.encErr = fmt.Errorf("core: unknown Options.Encoding %d", int(opts.Encoding))
	}
	index := map[tunnel.Flow]int{}
	for _, f := range tun.All() {
		if len(tun.Tunnels(f)) > 0 {
			index[f] = 0
		}
	}
	s.flows = tunnel.SortedFlows(index)
	for i, f := range s.flows {
		index[f] = i
	}
	for _, f := range tun.All() {
		for _, t := range tun.Tunnels(f) {
			for _, l := range t.Links {
				s.incidence[l] = append(s.incidence[l], flowTunnel{index[f], t.Index})
			}
		}
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

// tau returns τf = |Tf| − ke·pf − kv·qf counted over the tunnels alive
// marks: how many of them are guaranteed to survive the protection level's
// faults.
func (s *Solver) tau(f tunnel.Flow, prot Protection, alive []bool) int {
	p, q := s.Tun.PQ(f, alive)
	n := 0
	for _, a := range alive {
		if a {
			n++
		}
	}
	return n - prot.Ke*p - prot.Kv*q
}

// build validates in and formulates its LP from scratch — the one way a TE
// model is constructed.
func (s *Solver) build(in Input) (*builder, error) {
	if s.encErr != nil {
		return nil, s.encErr
	}
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
// model (rebound in place when in matches the template's structure, or the
// previous structure's template and basis when in matches that) and
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
	// A bad input falls through to build, which reports it.
	valid := in.validate() == nil
	reused := valid && se.tmpl.Matches(&in)
	if !reused && valid && se.prev.Matches(&in) {
		// Back to the structure left last, with the basis it left with.
		back, backWarm := se.prev, se.prevWarm
		se.prev, se.prevWarm = nil, nil
		se.leave()
		se.tmpl, se.warm, reused = back, backWarm, true
	}
	if reused {
		se.tmpl.instantiate(in)
		obsTemplateHits.Inc()
	} else {
		fresh, err := s.build(in)
		if err != nil {
			return nil, &Stats{Outcome: OutcomeSolverError}, err
		}
		se.leave()
		se.tmpl = newTemplate(s, fresh, in)
		obsTemplateMisses.Inc()
	}
	ws := se.warm
	b := se.tmpl.b
	buildTime := time.Since(start)
	build.End()
	// The budget's deadline runs from start, so formulation time counts
	// against it — the controller's window covers the whole computation.
	opts := lp.SolveOpts{MaxIters: in.Budget.MaxIters, Ctx: in.Budget.Ctx, Hook: in.Budget.Hook}
	if in.Budget.Deadline != 0 {
		opts.Deadline = start.Add(in.Budget.Deadline)
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
	if d := in.Budget.Deadline; d > 0 && obs.Enabled() {
		obsSolveVsDeadline.Observe(int64(100 * stats.SolveTime / d))
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
			if row >= 0 && sol.Duals[row] > 1e-9 {
				stats.LinkShadowPrice[topology.LinkID(l)] = sol.Duals[row]
			}
		}
	case PlanCapacity:
		stats.AddedCapacity = map[topology.LinkID]float64{}
		for l, v := range b.capVar {
			if v >= 0 && sol.Value(v) > 1e-9 {
				stats.AddedCapacity[topology.LinkID(l)] = sol.Value(v)
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
