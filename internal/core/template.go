package core

import (
	"errors"

	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// ErrTemplateMismatch is returned by ModelTemplate.Instantiate when the
// input's structure differs from the one the template was built for.
var ErrTemplateMismatch = errors.New("core: input does not match the template's frozen structure")

var (
	obsTemplateHits   = obs.NewCounter("core.template_hits")
	obsTemplateMisses = obs.NewCounter("core.template_misses")
)

// ModelTemplate is a TE formulation frozen for one structural fingerprint:
// the topology, tunnel set, and k-vector fix every variable and constraint
// index, so as long as successive inputs differ only in values (demands,
// capacities, rate caps/floors/fixings) the built LP can be re-instantiated
// by rewriting bounds, right-hand sides, and objective coefficients through
// the lp mutation API (SetBounds/SetRHS/SetObjCoef) instead of being
// re-formulated. A Session's warm-start basis still fits the rebound model,
// so the two caches compose.
//
// Invalidation rules (any of these is a structural change → Matches returns
// false and callers must build a fresh template):
//   - a different protection vector (kc, ke, kv), or kc > 0 at all
//     (control-plane FFC embeds the previous state's weights as
//     coefficients);
//   - a different candidate flow list (a flow's demand crossing zero adds
//     or removes variables);
//   - different down-link/down-switch sets (fault state selects which
//     tunnel terms exist and the τf network sizes);
//   - objectives other than MaxThroughput, mice selection, or
//     demand-uncertainty FFC (their input values become matrix
//     coefficients, not bounds/RHS).
//
// A ModelTemplate is not safe for concurrent use.
type ModelTemplate struct {
	s *Solver
	b *builder
	// in is the template's owned copy of the last instantiated input;
	// b.in points at it so the builder's bound/RHS helpers read the
	// current values.
	in         Input
	rebindable bool
	flows      []tunnel.Flow
	downLinks  map[topology.LinkID]bool
	downSw     map[topology.SwitchID]bool
}

// NewTemplate formulates in from scratch and freezes the result as a
// reusable template. The returned template's Instantiate only accepts
// inputs that Match the frozen structure.
func (s *Solver) NewTemplate(in Input) (*ModelTemplate, error) {
	b, err := s.build(in)
	if err != nil {
		return nil, err
	}
	return newTemplate(s, b, in), nil
}

// newTemplate wraps an already-formulated builder. It records the
// structural fingerprint under which the model may be rebound later. Only
// the plain max-throughput shape qualifies: MinMLU/PlanCapacity embed
// capacities as coefficients, control-plane FFC (Kc > 0) embeds the
// previous state's weights, mice selection depends on demand values, and
// demand-uncertainty FFC embeds per-flow loads — all structure, not
// bounds/RHS.
func newTemplate(s *Solver, b *builder, in Input) *ModelTemplate {
	t := &ModelTemplate{s: s, b: b, in: in,
		flows:     b.flows,
		downLinks: in.DownLinks,
		downSw:    in.DownSwitches,
	}
	b.in = &t.in
	t.rebindable = s.Opts.Objective == MaxThroughput &&
		s.Opts.MiceFraction <= 0 &&
		in.Prot.Kc == 0 &&
		(in.Demand.Count <= 0 || in.Demand.Factor <= 1)
	return t
}

// Vars and Constraints report the frozen model's size.
func (t *ModelTemplate) Vars() int        { return t.b.model.NumVars() }
func (t *ModelTemplate) Constraints() int { return t.b.model.NumRows() }

// Matches reports whether in has the structure the template froze: same
// protection, same candidate flow list, same down sets, and a shape whose
// input values appear only in bounds and right-hand sides.
func (t *ModelTemplate) Matches(in *Input) bool {
	if t.b == nil || !t.rebindable {
		return false
	}
	if in.Prot != t.in.Prot {
		return false
	}
	if in.Demand.Count > 0 && in.Demand.Factor > 1 {
		return false
	}
	if !sameLinkSet(in.DownLinks, t.downLinks) || !sameSwitchSet(in.DownSwitches, t.downSw) {
		return false
	}
	// The candidate flow list (positive demand, has tunnels) must be
	// identical — it determines every variable and constraint.
	i := 0
	for _, f := range in.Demands.Flows() {
		if in.Demands[f] <= 0 || len(t.s.Tun.Tunnels(f)) == 0 {
			continue
		}
		if i >= len(t.flows) || t.flows[i] != f {
			return false
		}
		i++
	}
	return i == len(t.flows)
}

// Instantiate rewrites the frozen model for in — bounds, right-hand sides,
// and objective coefficients only; the sparsity pattern is untouched. It
// fails with ErrTemplateMismatch when in does not Match. After a successful
// Instantiate the model solves to a solution bit-identical to a scratch
// formulation of the same input (at the same simplex starting point).
func (t *ModelTemplate) Instantiate(in Input) error {
	if err := in.validate(); err != nil {
		return err
	}
	if !t.Matches(&in) {
		return ErrTemplateMismatch
	}
	t.instantiate(in)
	return nil
}

// instantiate is Instantiate after the Matches check: it re-derives every
// input-dependent bound, right-hand side, and objective coefficient of the
// cached model from in.
func (t *ModelTemplate) instantiate(in Input) {
	b := t.b
	t.in = in
	b.in = &t.in
	for _, f := range b.flows {
		lo, hi := b.rateBounds(f)
		b.model.SetBounds(b.bVar[f], lo, hi)
		// The rebindable shape is MaxThroughput: the objective is Σ bf.
		// Values can't change it, but restating it through SetObjCoef
		// keeps Instantiate a full value rewrite (and repairs any caller
		// mutation between solves).
		b.model.SetObjCoef(b.bVar[f], 1)
		if b.mice[f] {
			continue
		}
		for i, v := range b.aVar[f] {
			alo, ahi := b.allocBounds(f, i)
			b.model.SetBounds(v, alo, ahi)
		}
	}
	for l, row := range b.capRow {
		b.model.SetRHS(row, t.s.capacity(&t.in, l))
	}
}

func sameLinkSet(a, b map[topology.LinkID]bool) bool {
	for l, v := range a {
		if v && !b[l] {
			return false
		}
	}
	for l, v := range b {
		if v && !a[l] {
			return false
		}
	}
	return true
}

func sameSwitchSet(a, b map[topology.SwitchID]bool) bool {
	for s, v := range a {
		if v && !b[s] {
			return false
		}
	}
	for s, v := range b {
		if v && !a[s] {
			return false
		}
	}
	return true
}
