package core

import "ffc/internal/lp"

// Session solves a sequence of closely-related TE inputs — the per-interval
// recomputation loop of §5 — reusing work across calls:
//
//   - the simplex basis of the previous solve warm-starts the next one
//     (lp.WarmStart), typically eliminating Phase 1 and most iterations;
//   - when the input differs from the cached one only in *values* (demands,
//     capacities, rate caps/floors/fixings) and not in structure, the built
//     LP model is re-instantiated from the cached ModelTemplate via
//     SetBounds/SetRHS/SetObjCoef instead of being re-formulated.
//
// A Session is NOT safe for concurrent use; create one per serial solve
// loop. Results are identical to Solver.Solve up to the simplex's choice
// among alternate optima. Solve itself lives in core.go.
type Session struct {
	s    *Solver
	warm *lp.WarmStart
	tmpl *ModelTemplate
}

// NewSession returns a solve session bound to s.
func (s *Solver) NewSession() *Session { return &Session{s: s} }

// Template exposes the session's cached model template (nil until the
// first successful build).
func (se *Session) Template() *ModelTemplate { return se.tmpl }

// Reset drops the cached template and basis; the next Solve starts cold.
func (se *Session) Reset() {
	se.warm, se.tmpl = nil, nil
}
