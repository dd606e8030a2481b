package core

import "ffc/internal/lp"

// Session solves a sequence of closely-related TE inputs — the per-interval
// recomputation loop of §5 — reusing work across calls:
//
//   - the simplex basis of the previous solve warm-starts the next one
//     (lp.WarmStart), typically eliminating Phase 1 and most iterations;
//   - when the input differs from the cached one only in *values* (demands,
//     capacities, rate caps/floors/fixings) and not in structure (flow list,
//     protection, down sets, mice set), the built LP model is
//     re-instantiated from the cached ModelTemplate via
//     SetBounds/SetRHS/SetObjCoef instead of being re-formulated;
//   - the last rebindable template the session left is kept, with the warm
//     start it left with, so returning to that structure (a link coming
//     back up) rebinds it and seats its carried factorization.
//
// A Session is NOT safe for concurrent use; create one per serial solve
// loop. Results are identical to Solver.Solve up to the simplex's choice
// among alternate optima. Solve itself lives in core.go.
type Session struct {
	s    *Solver
	warm *lp.WarmStart
	tmpl *ModelTemplate
	// prev and prevWarm are the previous-structure slot.
	prev     *ModelTemplate
	prevWarm *lp.WarmStart
}

// NewSession returns a solve session bound to s.
func (s *Solver) NewSession() *Session { return &Session{s: s} }

// leave moves the current template into the slot, with the warm start it
// leaves with, when it is rebindable; other shapes never enter the slot.
func (se *Session) leave() {
	if se.tmpl != nil && se.tmpl.rebindable {
		se.prev, se.prevWarm = se.tmpl, se.warm
	}
}
