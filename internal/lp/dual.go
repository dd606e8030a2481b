package lp

import "math"

// worstRow returns the basis position whose value lies farthest outside its
// bounds (beyond feasTol), or -1 when the basis is primal feasible.
func (s *simplexState) worstRow() int {
	r, worst := -1, feasTol
	for i, j := range s.basis {
		if v := math.Max(s.lo[j]-s.xB[i], s.xB[i]-s.hi[j]); v > worst {
			r, worst = i, v
		}
	}
	return r
}

// dualSimplex drives a freshly seated warm basis to primal feasibility with
// a bounded-variable dual simplex, so the primal optimize() that follows
// starts in Phase II. A basis that is already feasible returns at once. The
// handle came from an optimum, so after an RHS or bound change its reduced
// costs still have the right signs and the dual pivots end at the new
// optimum; where the objective or the matrix moved, a nonbasic column whose
// reduced cost has the wrong sign is flipped to its other bound when boxed
// and otherwise frozen out of the ratio test, and the primal finish prices
// it. Each iteration: the leaving row r is the largest bound violation;
// ρ = e_rᵀB⁻¹ gives the pivot row α_j = ρ·A_j; the entering column
// minimises |d_j|/|α_j| over the nonbasics that move x_r toward its bound,
// ties to the larger |α_j|.
//
// ok = false means the dual gave up — empty ratio test (the model, or its
// restriction to the unfrozen columns, is infeasible), a pivot element that
// disagrees between row and column computation, or too many pivots — and
// the caller restarts cold, which is also what proves infeasibility. With
// ok = true, st is Optimal ("feasible, carry on") or the budget/iteration
// stop that fired.
func (s *simplexState) dualSimplex() (st Status, ok bool) {
	if s.worstRow() < 0 {
		return Optimal, true
	}
	m := s.m
	frozen := make([]bool, s.n)
	flipped := false
	for j, js := range s.status {
		if js == stBasic || s.hi[j]-s.lo[j] <= fixedEps {
			continue
		}
		if (js == stAtUpper || s.d[j] >= -dualTol) && (js == stAtLower || s.d[j] <= dualTol) {
			continue
		}
		switch {
		case js == stAtLower && !math.IsInf(s.hi[j], 1):
			s.status[j], s.nbVal[j] = stAtUpper, s.hi[j]
			flipped = true
		case js == stAtUpper && !math.IsInf(s.lo[j], -1):
			s.status[j], s.nbVal[j] = stAtLower, s.lo[j]
			flipped = true
		default:
			frozen[j] = true
		}
	}
	if flipped {
		s.computeXB()
	}

	s.inDual = true
	rho := make([]float64, m)
	w := make([]float64, m)
	alpha := make([]float64, s.n)
	for left := 4*m + 1000; ; left-- {
		r := s.worstRow()
		if r < 0 {
			s.inDual = false
			return Optimal, true
		}
		if left == 0 {
			return Optimal, false
		}
		if s.iters >= s.maxIters {
			return IterLimit, true
		}
		if s.checkBudget {
			if st := s.budgetCheckpoint(); st != Optimal {
				return st, true
			}
		}

		lv := s.basis[r]
		below := s.xB[r] < s.lo[lv]
		bound := s.hi[lv]
		if below {
			bound = s.lo[lv]
		}
		for i := range rho {
			rho[i] = 0
		}
		s.rep.btranUnit(r, rho)

		// x_r moves by −α_j·Δx_j, so column j helps only when it can move
		// in the direction that pushes x_r back toward the violated bound.
		q, best, bestA := -1, math.Inf(1), 0.0
		for j, js := range s.status {
			alpha[j] = 0
			if js == stBasic {
				continue
			}
			var a float64
			for k, i := range s.colIdx[j] {
				a += rho[i] * s.colCoef[j][k]
			}
			alpha[j] = a
			if frozen[j] || s.hi[j]-s.lo[j] <= fixedEps || math.Abs(a) <= pivotTol {
				continue
			}
			if up := a < 0 == below; (up && js == stAtUpper) || (!up && js == stAtLower) {
				continue
			}
			t := math.Abs(s.d[j] / a)
			if t < best-degenEps || (t < best+degenEps && math.Abs(a) > bestA) {
				q, best, bestA = j, t, math.Abs(a)
			}
		}
		if q < 0 {
			return Optimal, false
		}
		pat := s.rep.ftran(s.colIdx[q], s.colCoef[q], w)
		piv := w[r]
		if math.Abs(piv-alpha[q]) > 1e-6*(1+math.Abs(piv)) {
			return Optimal, false
		}
		s.iters++
		s.stats.DualIters++

		// Primal step: x_r lands on its bound, q enters at row r.
		step := (s.xB[r] - bound) / piv
		applyStep(s.xB, w, pat, step)
		s.xB[r] = s.nbVal[q] + step
		s.basis[r] = q
		s.status[q] = stBasic
		s.nbVal[lv] = bound
		if below {
			s.status[lv] = stAtLower
		} else {
			s.status[lv] = stAtUpper
		}

		// Dual step along the pivot row, then the basis change itself.
		ratio := s.d[q] / piv
		for j, a := range alpha {
			if a != 0 {
				s.d[j] -= ratio * a
			}
		}
		s.d[q] = 0
		s.d[lv] = -ratio
		s.rep.pivot(r, w, pat)
		clearW(w, pat)
		if s.rep.shouldRefactor() {
			s.refactor()
		}
	}
}
