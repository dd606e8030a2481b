// Package lp implements a self-contained linear-programming toolkit:
// a model builder (variables with bounds, linear constraints, a linear
// objective) and a bounded-variable revised-simplex solver.
//
// The FFC traffic-engineering formulations of this repository are plain
// linear programs. The original paper solved them with Microsoft Solver
// Foundation backed by CPLEX; this package is the pure-Go substitute.
// It is exact in the usual floating-point-simplex sense and is validated
// in the tests against brute-force vertex enumeration on small instances.
//
// Typical usage:
//
//	m := lp.NewModel()
//	x := m.NewVar("x", 0, 4)
//	y := m.NewVar("y", 0, lp.Inf)
//	m.AddLE(lp.NewExpr().Add(1, x).Add(2, y), 14)
//	m.AddGE(lp.NewExpr().Add(3, x).Add(-1, y), 0)
//	m.Maximize(lp.NewExpr().Add(1, x).Add(1, y))
//	sol, err := m.Solve()
//
// A model goes to the solver exactly as built — no reduction stage sits
// in between — so Solution.X, Solution.Duals and a WarmStart are all in
// the model's own column and row indices. The solver is a primal revised
// simplex with bounded variables (variable bounds never become rows; a
// fixed column, lo == hi, is carried but never priced). It starts from the
// diagonal crash basis — slacks, plus one artificial per row the slack
// cannot satisfy — and runs a Phase I over the artificials when there are
// any; or from a caller's WarmStart, factorized once and driven back inside
// the current bounds and right-hand sides by a bounded-variable dual simplex
// (dual.go), which needs no artificials and no Phase I and hands a feasible
// basis to the primal Phase II. The primal prices with Devex weights,
// falling back to Bland's rule after a long degenerate run; both update
// reduced costs incrementally. The basis inverse is kept in product form
// (an eta file with sparse FTRAN/BTRAN and Markowitz-ordered reinversion),
// except that a cold crash below 260 rows uses an explicit dense matrix;
// every warm seat is product form at any size. Both are refactorized
// periodically for numerical hygiene.
package lp
