package prop

import (
	"fmt"
	"math"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// Invariant names. Each is a metamorphic or safety property of the FFC
// pipeline that must hold on every generated scenario.
const (
	// InvSolveOK: the previous-state solve, the session prime (on session
	// paths), and the main solve all complete with an optimal plan.
	InvSolveOK = "solve-ok"
	// InvPlanSane: the plan grants 0 ≤ rate ≤ demand per flow, with finite
	// non-negative allocations whose sum covers the rate.
	InvPlanSane = "plan-sane"
	// InvProtMono: raising any protection dimension by one (holding the
	// previous state fixed) never increases optimal throughput — the
	// feasible regions are nested.
	InvProtMono = "prot-monotone"
	// InvFFCLeTE: FFC throughput ≤ plain-TE throughput, with equality at
	// zero protection (the paper's Fig 12 ordering).
	InvFFCLeTE = "ffc-le-te"
	// InvScale: multiplying every capacity and demand (and the previous
	// state) by λ multiplies optimal throughput by exactly λ — the
	// formulation is positively homogeneous. λ is a power of two, so the
	// scaling itself is float-exact.
	InvScale = "scale-invariant"
	// InvRelabel: permuting switch IDs (carrying the tunnel set and
	// previous state through the permutation) leaves optimal throughput
	// unchanged. Checked only at kc = 0: with control-plane protection the
	// previous state is itself a solver artifact, and alternate optima
	// break cross-run comparability.
	InvRelabel = "relabel-invariant"
	// InvCertify: the solved plan certifies congestion-free at its own
	// protection level under the independent checker's exact enumeration.
	InvCertify = "certify-ok"
	// InvDegraded: after further faults strike, the Degrade()d plan
	// certifies congestion-free at zero protection under the grown fault
	// set — the paper's rescaling-headroom guarantee.
	InvDegraded = "degraded-certifies"
)

// AllInvariants lists every invariant in check order.
var AllInvariants = []string{
	InvSolveOK, InvPlanSane, InvProtMono, InvFFCLeTE,
	InvScale, InvRelabel, InvCertify, InvDegraded,
}

// relTol is the relative tolerance for throughput comparisons: optimal LP
// objectives reached via different solve paths (cold vs warm basis,
// template rebind) agree only up to simplex numerics.
const relTol = 1e-5

func leTol(a, b float64) bool { return a <= b+relTol*math.Max(1, math.Abs(b)) }
func eqTol(a, b float64) bool {
	m := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= relTol*m
}

// Failure is one invariant violation.
type Failure struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (f Failure) String() string { return f.Invariant + ": " + f.Detail }

// Result reports one scenario run.
type Result struct {
	// Rate is the main plan's total granted rate.
	Rate float64 `json:"rate"`
	// Checked lists the invariants that ran.
	Checked []string `json:"checked"`
	// Failures lists every violated invariant (empty = pass).
	Failures []Failure `json:"failures,omitempty"`
}

// OK reports whether every checked invariant held.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// FirstFailure returns the first failure (zero value if none).
func (r *Result) FirstFailure() Failure {
	if len(r.Failures) == 0 {
		return Failure{}
	}
	return r.Failures[0]
}

// Run executes the scenario's full pipeline and checks its invariants.
// It is deterministic: no RNG, no clocks — identical scenarios produce
// identical results. A non-nil error means the scenario itself is invalid
// (unknown names, broken topology), not that an invariant failed.
func Run(sc *Scenario) (*Result, error) {
	e, err := sc.materialize()
	if err != nil {
		return nil, err
	}
	r := &runner{e: e, res: &Result{}}
	r.run()
	return r.res, nil
}

type runner struct {
	e   *env
	res *Result

	solver *core.Solver
	// prev is the previously-installed state the main solve (and every
	// comparison solve) is relative to. On scratch paths it is S0 (the
	// plain-TE solve of the previous interval); on session paths it is S1
	// (the session's priming solve at the scenario's protection level).
	// Holding it fixed across compared solves is what makes the
	// monotonicity and ordering invariants sound: the feasible regions are
	// then nested by construction.
	prev *core.State
	plan *core.State
}

func (r *runner) enabled(inv string) bool {
	if len(r.e.sc.Invariants) == 0 {
		return true
	}
	for _, want := range r.e.sc.Invariants {
		if want == inv {
			return true
		}
	}
	return false
}

func (r *runner) fail(inv, format string, args ...interface{}) {
	r.res.Failures = append(r.res.Failures, Failure{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

func (r *runner) checked(inv string) { r.res.Checked = append(r.res.Checked, inv) }

func (r *runner) run() {
	e := r.e
	r.solver = core.NewSolver(e.net, e.set, e.opts)

	// S0: the previous interval's plain-TE plan — the state "installed"
	// before this interval. Solving (rather than fabricating) it keeps the
	// previous state on the solver's own manifold.
	r.checked(InvSolveOK) // solve-ok is a precondition; always reported
	s0, _, err := r.solver.Solve(core.Input{
		Demands: e.prevDem, Prot: core.None,
		DownLinks: e.downLinks, DownSwitches: e.downSwitches,
	})
	if err != nil {
		r.fail(InvSolveOK, "previous-state solve failed: %v", err)
		return
	}
	r.prev = s0

	mainIn := core.Input{
		Demands: e.demands, Prot: e.prot, Prev: r.prev,
		DownLinks: e.downLinks, DownSwitches: e.downSwitches,
	}
	switch e.sc.Path {
	case PathScratch:
		st, stats, err := r.solver.Solve(mainIn)
		if err != nil || stats.Outcome != core.OutcomeOptimal {
			r.fail(InvSolveOK, "main %s solve: outcome %v err %v", e.sc.Path, outcomeOf(stats), err)
			return
		}
		r.plan = st
	case PathTemplate:
		se := r.solver.NewSession()
		s1, stats, err := se.Solve(core.Input{
			Demands: e.prevDem, Prot: e.prot, Prev: s0,
			DownLinks: e.downLinks, DownSwitches: e.downSwitches,
		})
		if err != nil || stats.Outcome != core.OutcomeOptimal {
			r.fail(InvSolveOK, "session prime solve: outcome %v err %v", outcomeOf(stats), err)
			return
		}
		r.prev = s1
		mainIn.Prev = s1
		st, stats, err := se.Solve(mainIn)
		if err != nil || stats.Outcome != core.OutcomeOptimal {
			r.fail(InvSolveOK, "main %s solve: outcome %v err %v", e.sc.Path, outcomeOf(stats), err)
			return
		}
		// Whether the template rebinds or rebuilds is the session's own
		// decision (the previous state can change the control-plane row
		// structure between prime and main); both are correct, so no
		// assertion on stats.ModelReused here.
		r.plan = st
	}
	r.res.Rate = r.plan.TotalRate()

	if r.enabled(InvPlanSane) {
		r.checked(InvPlanSane)
		r.planSane()
	}
	if r.enabled(InvProtMono) {
		r.checked(InvProtMono)
		r.protMonotone()
	}
	if r.enabled(InvFFCLeTE) {
		r.checked(InvFFCLeTE)
		r.ffcLeTE()
	}
	if r.enabled(InvScale) && r.e.sc.Scale > 0 && r.e.sc.Scale != 1 {
		r.checked(InvScale)
		r.scaleInvariant()
	}
	if r.enabled(InvRelabel) && len(r.e.sc.Relabel) > 0 && r.e.prot.Kc == 0 {
		r.checked(InvRelabel)
		r.relabelInvariant()
	}
	if r.enabled(InvCertify) {
		r.checked(InvCertify)
		r.certifyOK()
	}
	if r.enabled(InvDegraded) {
		r.checked(InvDegraded)
		r.degradedCertifies()
	}
}

func outcomeOf(stats *core.Stats) core.Outcome {
	if stats == nil {
		return core.OutcomeSolverError
	}
	return stats.Outcome
}

// planSane checks the plan's per-flow arithmetic sanity.
func (r *runner) planSane() {
	e := r.e
	for _, f := range flowsOf(r.plan) {
		rate := r.plan.Rate[f]
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < -1e-9 {
			r.fail(InvPlanSane, "flow %s: rate %g", flowName(e.net, f), rate)
			return
		}
		if d := e.demands[f]; !leTol(rate, d) {
			r.fail(InvPlanSane, "flow %s: rate %g exceeds demand %g", flowName(e.net, f), rate, d)
			return
		}
		var sum float64
		for _, a := range r.plan.Alloc[f] {
			if math.IsNaN(a) || math.IsInf(a, 0) || a < -1e-9 {
				r.fail(InvPlanSane, "flow %s: allocation %g", flowName(e.net, f), a)
				return
			}
			sum += a
		}
		if !leTol(rate, sum) {
			r.fail(InvPlanSane, "flow %s: rate %g exceeds allocation sum %g", flowName(e.net, f), rate, sum)
			return
		}
	}
}

// protMonotone re-solves with each protection dimension lowered by one,
// holding the previous state fixed, and requires throughput not to drop
// when protection drops.
func (r *runner) protMonotone() {
	e := r.e
	for _, c := range []struct {
		dim  string
		prot core.Protection
	}{
		{"kc", core.Protection{Kc: e.prot.Kc - 1, Ke: e.prot.Ke, Kv: e.prot.Kv}},
		{"ke", core.Protection{Kc: e.prot.Kc, Ke: e.prot.Ke - 1, Kv: e.prot.Kv}},
		{"kv", core.Protection{Kc: e.prot.Kc, Ke: e.prot.Ke, Kv: e.prot.Kv - 1}},
	} {
		if c.prot.Kc < 0 || c.prot.Ke < 0 || c.prot.Kv < 0 {
			continue
		}
		st, stats, err := r.solver.Solve(core.Input{
			Demands: e.demands, Prot: c.prot, Prev: r.prev,
			DownLinks: e.downLinks, DownSwitches: e.downSwitches,
		})
		if err != nil || stats.Outcome != core.OutcomeOptimal {
			r.fail(InvProtMono, "solve at reduced %s %v: outcome %v err %v", c.dim, c.prot, outcomeOf(stats), err)
			return
		}
		if lower := st.TotalRate(); !leTol(r.res.Rate, lower) {
			r.fail(InvProtMono, "throughput %.9g at %v exceeds %.9g at reduced %s %v",
				r.res.Rate, e.prot, lower, c.dim, c.prot)
			return
		}
	}
}

// ffcLeTE compares against the unprotected solve: FFC never beats plain TE,
// and matches it exactly at zero protection (which also cross-checks the
// session paths against the scratch path on identical inputs).
func (r *runner) ffcLeTE() {
	e := r.e
	st, stats, err := r.solver.Solve(core.Input{
		Demands: e.demands, Prot: core.None, Prev: r.prev,
		DownLinks: e.downLinks, DownSwitches: e.downSwitches,
	})
	if err != nil || stats.Outcome != core.OutcomeOptimal {
		r.fail(InvFFCLeTE, "plain-TE solve: outcome %v err %v", outcomeOf(stats), err)
		return
	}
	te := st.TotalRate()
	if !leTol(r.res.Rate, te) {
		r.fail(InvFFCLeTE, "FFC throughput %.9g at %v exceeds plain TE %.9g", r.res.Rate, e.prot, te)
		return
	}
	if e.prot == core.None && !eqTol(r.res.Rate, te) {
		r.fail(InvFFCLeTE, "zero-protection throughput %.9g differs from plain TE %.9g", r.res.Rate, te)
	}
}

// scaleInvariant solves the λ-scaled instance (capacities, demands, and the
// previous state all multiplied by λ) and requires throughput exactly λ×.
// The previous state is scaled arithmetically rather than re-solved so both
// instances are relative to the same (scaled) state — re-solving could pick
// a different vertex among alternate optima and break comparability.
func (r *runner) scaleInvariant() {
	e := r.e
	lam := e.sc.Scale

	net := e.net.Clone()
	for i := range net.Links {
		net.Links[i].Capacity *= lam
	}
	// The layout metric is hop count, so the scaled network lays out the
	// identical tunnel set; rebuild it over the scaled network.
	set := tunnel.Layout(net, e.set.All(), tunnel.LayoutConfig{TunnelsPerFlow: e.sc.TunnelsPerFlow})
	solver := core.NewSolver(net, set, e.opts)

	st, stats, err := solver.Solve(core.Input{
		Demands: e.demands.Scale(lam), Prot: e.prot, Prev: scaleState(r.prev, lam),
		DownLinks: e.downLinks, DownSwitches: e.downSwitches,
	})
	if err != nil || stats.Outcome != core.OutcomeOptimal {
		r.fail(InvScale, "solve at scale %g: outcome %v err %v", lam, outcomeOf(stats), err)
		return
	}
	if got, want := st.TotalRate(), lam*r.res.Rate; !eqTol(got, want) {
		r.fail(InvScale, "throughput %.9g at scale %g, want %.9g (= %g × %.9g)",
			got, lam, want, lam, r.res.Rate)
	}
}

func scaleState(st *core.State, lam float64) *core.State {
	out := core.NewState()
	for f, rt := range st.Rate {
		out.Rate[f] = rt * lam
	}
	for f, alloc := range st.Alloc {
		na := make([]float64, len(alloc))
		for i, a := range alloc {
			na[i] = a * lam
		}
		out.Alloc[f] = na
	}
	return out
}

// relabelInvariant permutes switch IDs and carries the tunnel set, demands,
// and previous state through the permutation — the relabeled instance is
// the same graph, so optimal throughput must match. The tunnel set is
// mapped, not re-laid-out: layout tie-breaking under a different vertex
// order would legitimately change the feasible region.
func (r *runner) relabelInvariant() {
	e := r.e
	net, err := e.net.Permute(e.sc.Relabel)
	if err != nil {
		r.fail(InvRelabel, "permute: %v", err)
		return
	}
	inv := make([]topology.SwitchID, len(e.sc.Relabel))
	for newID, oldID := range e.sc.Relabel {
		inv[oldID] = topology.SwitchID(newID)
	}
	mapFlow := func(f tunnel.Flow) tunnel.Flow {
		return tunnel.Flow{Src: inv[f.Src], Dst: inv[f.Dst]}
	}

	set := tunnel.NewSet(net)
	for _, f := range e.set.All() {
		var ts []*tunnel.Tunnel
		for _, t := range e.set.Tunnels(f) {
			sws := make([]topology.SwitchID, len(t.Switches))
			for i, v := range t.Switches {
				sws[i] = inv[v]
			}
			ts = append(ts, &tunnel.Tunnel{
				Links:    append([]topology.LinkID(nil), t.Links...),
				Switches: sws,
			})
		}
		set.Add(mapFlow(f), ts...)
	}

	mapMatrix := func(m demand.Matrix) demand.Matrix {
		out := make(demand.Matrix, len(m))
		for f, d := range m {
			out[mapFlow(f)] = d
		}
		return out
	}
	prev := core.NewState()
	for f, rt := range r.prev.Rate {
		prev.Rate[mapFlow(f)] = rt
	}
	for f, alloc := range r.prev.Alloc {
		prev.Alloc[mapFlow(f)] = append([]float64(nil), alloc...)
	}
	downSws := map[topology.SwitchID]bool{}
	for v := range e.downSwitches {
		downSws[inv[v]] = true
	}
	if len(e.downSwitches) == 0 {
		downSws = nil
	}

	solver := core.NewSolver(net, set, e.opts)
	st, stats, err := solver.Solve(core.Input{
		Demands: mapMatrix(e.demands), Prot: e.prot, Prev: prev,
		DownLinks: e.downLinks, DownSwitches: downSws,
	})
	if err != nil || stats.Outcome != core.OutcomeOptimal {
		r.fail(InvRelabel, "solve on relabeled network: outcome %v err %v", outcomeOf(stats), err)
		return
	}
	if got := st.TotalRate(); !eqTol(got, r.res.Rate) {
		r.fail(InvRelabel, "throughput %.9g on relabeled network, want %.9g", got, r.res.Rate)
	}
}

// observedPlan returns the plan as the certifier will see it: the solved
// plan, plus any bump-rate mutation (the deliberate-corruption mechanism
// the harness's self-test and shrinker replay use).
func (r *runner) observedPlan() *core.State {
	m := r.e.sc.Mutation
	if m == nil || m.Kind != MutBumpRate {
		return r.plan
	}
	st := r.plan.Clone()
	f, err := wire.ResolveFlow(r.e.net, m.Src, m.Dst)
	if err == nil {
		st.Rate[f] *= m.Factor
	}
	return st
}

// observedCapacity returns the certifier's capacity view: nil (topology
// capacities), or a one-link override from a scale-capacity mutation.
func (r *runner) observedCapacity() map[topology.LinkID]float64 {
	m := r.e.sc.Mutation
	if m == nil || m.Kind != MutScaleCapacity {
		return nil
	}
	l := r.e.net.LinkByName(m.Link)
	if l == topology.None {
		return nil
	}
	return map[topology.LinkID]float64{l: r.e.net.Links[l].Capacity * m.Factor}
}

// certifyOK runs the independent checker on the (possibly mutated) plan at
// the scenario's protection level and requires an OK verdict, which is a
// proof: the checker enumerates every fault case.
func (r *runner) certifyOK() {
	e := r.e
	cert, err := check.Certify(e.net, e.set, r.observedPlan(), r.prev, check.Params{
		Prot: e.prot, RateLimiter: e.opts.RateLimiter,
		Capacity: r.observedCapacity(), DownLinks: e.downLinks, DownSwitches: e.downSwitches,
	})
	if err != nil {
		r.fail(InvCertify, "certify: %v", err)
		return
	}
	if !cert.OK {
		r.fail(InvCertify, "%s", cert.Summary())
	}
}

// degradedCertifies applies the scenario's post-install faults, degrades
// the plan (zero dead allocations, rates capped to surviving headroom),
// and requires the result to certify congestion-free at zero protection
// under the grown fault set.
func (r *runner) degradedCertifies() {
	e := r.e
	downLinks := map[topology.LinkID]bool{}
	for l := range e.downLinks {
		downLinks[l] = true
	}
	for l := range e.extraLinks {
		downLinks[l] = true
	}
	downSws := map[topology.SwitchID]bool{}
	for v := range e.downSwitches {
		downSws[v] = true
	}
	for v := range e.extraSws {
		downSws[v] = true
	}

	// The demand cap is the plan's own rates, so it changes nothing: the
	// invariant checks the degrade rule alone.
	plan := r.observedPlan()
	degraded := core.Degrade(e.net, e.set, plan, plan.Rate, downLinks, downSws)
	cert, err := check.Certify(e.net, e.set, degraded, nil, check.Params{
		Prot: core.None, RateLimiter: e.opts.RateLimiter,
		Capacity: r.observedCapacity(), DownLinks: downLinks, DownSwitches: downSws,
	})
	if err != nil {
		r.fail(InvDegraded, "certify degraded plan: %v", err)
		return
	}
	if !cert.OK {
		r.fail(InvDegraded, "degraded plan: %s", cert.Summary())
	}
}

// MutateWorstLink returns a copy of sc carrying a scale-capacity mutation
// guaranteed to violate certification: it solves the scenario's pipeline,
// finds the most-loaded directed link, and shrinks that link's observed
// capacity below its load. The result is the harness's deliberately-broken
// scenario — Run must report a certify-ok failure on it, and the shrinker
// and repro machinery are exercised against it.
func MutateWorstLink(sc *Scenario) (*Scenario, error) {
	c := sc.Clone()
	c.Mutation = nil
	e, err := c.materialize()
	if err != nil {
		return nil, err
	}
	r := &runner{e: e, res: &Result{}}
	// Run only the solve; any solve failure surfaces as a Failure.
	c.Invariants = []string{InvSolveOK}
	e.sc = c
	r.run()
	c.Invariants = nil
	if !r.res.OK() {
		return nil, fmt.Errorf("prop: scenario does not solve: %v", r.res.FirstFailure())
	}
	loads := r.plan.LinkLoads(e.set)
	var worst topology.LinkID = topology.None
	var worstLoad float64
	for l, ld := range loads {
		if ld > worstLoad {
			worst, worstLoad = l, ld
		}
	}
	if worst == topology.None || worstLoad <= 0 {
		return nil, fmt.Errorf("prop: plan loads no link; nothing to corrupt")
	}
	cap := e.net.Links[worst].Capacity
	c.Mutation = &Mutation{
		Kind: MutScaleCapacity, Link: e.net.LinkName(worst),
		// Observed capacity = half the planned load: a certain violation.
		Factor: 0.5 * worstLoad / cap,
	}
	return c, nil
}

func flowsOf(st *core.State) []tunnel.Flow {
	m := make(demand.Matrix, len(st.Rate))
	for f, rt := range st.Rate {
		m[f] = rt + 1 // value unused; Flows() sorts keys
	}
	return m.Flows()
}

func flowName(net *topology.Network, f tunnel.Flow) string {
	return net.Switches[f.Src].Name + "->" + net.Switches[f.Dst].Name
}
