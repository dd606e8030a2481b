package lp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Bit-identity of row-wise pricing. The reference solve prices as the solver
// did before the row-wise copy of A: every pivot row α_j = ρ·A_j is a
// column-wise dot over each column's entries (pivotRowByColumns below). Both
// solves must take the same pivots and return the same bits, and the duals
// of either must be the final basis's c_B·B⁻¹ taken afresh: Solution.Duals
// reuses the last computeDuals' multipliers only while no pivot came after.

// pivotRowByColumns is the column-wise pivot row: for every column a dot
// over its entries in stored order, starting at +0.
func (s *simplexState) pivotRowByColumns(rho, alpha []float64) {
	for j := 0; j < s.n; j++ {
		var a float64
		for k, i := range s.colIdx[j] {
			a += rho[i] * s.colCoef[j][k]
		}
		alpha[j] = a
	}
}

// tracedSolve is one solve and the trace of its pivot rows: per call, the
// iteration count, the basis and the pivot row. ±0 entries of α hash alike:
// every consumer of α tests it against 0 or takes |α|. staleDuals reports
// Solution.Duals differing from c_B·B⁻¹ taken afresh on the final state.
type tracedSolve struct {
	sol        *Solution
	err        error
	calls      []uint64
	staleDuals bool
}

func solveTraced(m *Model, ws *WarmStart, reference bool) tracedSolve {
	row := (*simplexState).pivotRowByRows
	if reference {
		row = (*simplexState).pivotRowByColumns
	}
	var out tracedSolve
	var last *simplexState
	defer func(row func(*simplexState, []float64, []float64)) { pivotRow = row }(pivotRow)
	pivotRow = func(s *simplexState, rho, alpha []float64) {
		row(s, rho, alpha)
		last = s
		var buf []byte
		for _, j := range s.basis {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(j))
		}
		for _, a := range alpha {
			if a == 0 {
				a = 0
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a))
		}
		h := fnv.New64a()
		h.Write(buf)
		out.calls = append(out.calls, uint64(s.iters), h.Sum64())
	}
	out.sol, out.err = m.SolveFrom(ws)
	if last != nil && out.sol != nil && out.sol.Duals != nil {
		y := make([]float64, last.m)
		for i, j := range last.basis {
			y[i] = last.cost[j]
		}
		last.rep.btranDense(y)
		for i := range y {
			if m.maximize {
				y[i] = -y[i]
			}
		}
		out.staleDuals = !slices.EqualFunc(y, out.sol.Duals, sameBits)
	}
	return out
}

// requireSameSolve fails unless got and want took the same pivots and
// returned bit-identical X, duals, objective, stats and warm statuses.
func requireSameSolve(t *testing.T, tag string, got, want tracedSolve) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: err %v, reference %v", tag, got.err, want.err)
	}
	if got.staleDuals || want.staleDuals {
		t.Fatalf("%s: duals are not the final basis's c_B·B⁻¹ (stale %v, reference stale %v)", tag, got.staleDuals, want.staleDuals)
	}
	if !slices.Equal(got.calls, want.calls) {
		t.Fatalf("%s: pivot sequence differs: %d pivot rows, reference %d", tag, len(got.calls)/2, len(want.calls)/2)
	}
	g, w := got.sol, want.sol
	if (g == nil) != (w == nil) {
		t.Fatalf("%s: solution %v, reference %v", tag, g, w)
	}
	if g == nil {
		return
	}
	if g.Status != w.Status || g.Iters != w.Iters || g.Stats != w.Stats || !sameBits(g.Objective, w.Objective) {
		t.Fatalf("%s: status %v iters %d obj %v stats %+v; reference %v %d %v %+v",
			tag, g.Status, g.Iters, g.Objective, g.Stats, w.Status, w.Iters, w.Objective, w.Stats)
	}
	if !slices.EqualFunc(g.X, w.X, sameBits) {
		t.Fatalf("%s: X differs from the reference's bits", tag)
	}
	if !slices.EqualFunc(g.Duals, w.Duals, sameBits) {
		t.Fatalf("%s: duals differ from the reference's bits", tag)
	}
	gw, ww := g.Warm(), w.Warm()
	if (gw == nil) != (ww == nil) {
		t.Fatalf("%s: warm handle %v, reference %v", tag, gw != nil, ww != nil)
	}
	if gw != nil && (!slices.Equal(gw.colStat, ww.colStat) || !slices.Equal(gw.slackStat, ww.slackStat)) {
		t.Fatalf("%s: captured warm statuses differ", tag)
	}
}

// sparseSpec is a random sparse LP, kept as data so the test can build it
// twice and grow it. Its rows hold at a random point x0 inside the bounds,
// so it is feasible; bounding rows on the columns with an infinite bound
// keep it bounded. GE and EQ rows with a nonzero right-hand side
// need artificials in the cold crash.
type sparseSpec struct {
	maximize bool
	lo, hi   []float64
	obj      []float64
	rows     []sparseRow
	forceRep int8
}

type sparseRow struct {
	idx   []int
	coef  []float64
	sense Sense
	rhs   float64
}

func randomSparseSpec(rng *rand.Rand, n, m int) *sparseSpec {
	sp := &sparseSpec{maximize: rng.Intn(2) == 0, lo: make([]float64, n), hi: make([]float64, n), obj: make([]float64, n)}
	x0 := make([]float64, n)
	var open []int
	for j := 0; j < n; j++ {
		sp.obj[j] = float64(rng.Intn(21)-10) / 4
		switch k := rng.Intn(10); {
		case k == 0: // free
			sp.lo[j], sp.hi[j] = math.Inf(-1), Inf
			x0[j] = rng.Float64()*4 - 2
			open = append(open, j)
		case k == 1: // fixed
			sp.lo[j] = float64(rng.Intn(4))
			sp.hi[j], x0[j] = sp.lo[j], sp.lo[j]
		case k == 2: // lower bound only
			sp.lo[j], sp.hi[j] = float64(rng.Intn(3)-1), Inf
			x0[j] = sp.lo[j] + rng.Float64()*3
			open = append(open, j)
		default: // boxed
			sp.lo[j] = float64(rng.Intn(3) - 1)
			sp.hi[j] = sp.lo[j] + 1 + float64(rng.Intn(8))
			x0[j] = sp.lo[j] + rng.Float64()*(sp.hi[j]-sp.lo[j])
		}
	}
	for i := 0; i < m; i++ {
		var r sparseRow
		for j := 0; j < n; j++ {
			if rng.Intn(n) < 4 {
				r.idx = append(r.idx, j)
				r.coef = append(r.coef, float64(rng.Intn(17)-8)/4+0.125)
			}
		}
		act := 0.0
		for k, j := range r.idx {
			act += r.coef[k] * x0[j]
		}
		switch rng.Intn(5) {
		case 0:
			r.sense, r.rhs = EQ, act
		case 1, 2:
			r.sense, r.rhs = GE, act-rng.Float64()
		default:
			r.sense, r.rhs = LE, act+rng.Float64()
		}
		sp.rows = append(sp.rows, r)
	}
	for _, j := range open {
		sp.rows = append(sp.rows, sparseRow{idx: []int{j}, coef: []float64{1}, sense: LE, rhs: 20})
		if math.IsInf(sp.lo[j], -1) {
			sp.rows = append(sp.rows, sparseRow{idx: []int{j}, coef: []float64{1}, sense: GE, rhs: -20})
		}
	}
	return sp
}

func (sp *sparseSpec) build() *Model {
	m := NewModel()
	m.forceRep = sp.forceRep
	for j := range sp.lo {
		m.NewVar("", sp.lo[j], sp.hi[j])
	}
	for _, r := range sp.rows {
		sp.addRow(m, r)
	}
	obj := NewExpr()
	for j, c := range sp.obj {
		obj.Add(c, Var(j))
	}
	m.setObjective(obj, sp.maximize)
	return m
}

func (sp *sparseSpec) addRow(m *Model, r sparseRow) {
	e := NewExpr()
	for k, j := range r.idx {
		e.Add(r.coef[k], Var(j))
	}
	m.AddConstraint(e, r.sense, r.rhs)
}

// perturbSpec moves some boxed columns' bounds and some rows' right-hand
// sides, in sp and on the given models alike.
func perturbSpec(rng *rand.Rand, sp *sparseSpec, models ...*Model) {
	for j := range sp.lo {
		if rng.Intn(6) != 0 || math.IsInf(sp.hi[j], 1) || math.IsInf(sp.lo[j], -1) || sp.lo[j] == sp.hi[j] {
			continue
		}
		sp.hi[j] = sp.lo[j] + (sp.hi[j]-sp.lo[j])*(0.5+rng.Float64()/2)
		for _, m := range models {
			m.SetBounds(Var(j), sp.lo[j], sp.hi[j])
		}
	}
	for i := range sp.rows {
		if rng.Intn(5) != 0 {
			continue
		}
		sp.rows[i].rhs += (rng.Float64() - 0.5) / 2
		for _, m := range models {
			m.SetRHS(i, sp.rows[i].rhs)
		}
	}
}

// TestRowWisePricingBitIdentical drives the row-wise and the column-wise
// pivot row through the same cold solves (dense and product-form crash),
// warm re-solves after bound and RHS moves, and a model that gains a column
// and a row after a solve, which must then solve exactly like the same
// model built fresh.
func TestRowWisePricingBitIdentical(t *testing.T) {
	pivots := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 20+rng.Intn(50), 10+rng.Intn(40)
		sp := randomSparseSpec(rng, n, m)
		if seed%4 == 0 {
			sp.forceRep = 2
		}
		got, ref := sp.build(), sp.build()
		gs, rs := solveTraced(got, nil, false), solveTraced(ref, nil, true)
		tag := fmt.Sprintf("seed %d (%d×%d)", seed, len(sp.rows), n)
		requireSameSolve(t, tag+" cold", gs, rs)
		coldIters := rs.sol.Iters
		pivots += len(rs.calls) / 2
		for step := 1; step <= 3 && gs.sol != nil && gs.sol.Warm() != nil; step++ {
			perturbSpec(rng, sp, got, ref)
			gs, rs = solveTraced(got, gs.sol.Warm(), false), solveTraced(ref, rs.sol.Warm(), true)
			requireSameSolve(t, fmt.Sprintf("%s warm step %d", tag, step), gs, rs)
			pivots += len(rs.calls) / 2
		}

		// Grow by one column, solve, then by one row over it and a few old
		// ones, and solve again: each time exactly like the model built fresh.
		got.NewVar("", 0, 3)
		got.SetObjCoef(Var(n), 1)
		sp.lo, sp.hi, sp.obj = append(sp.lo, 0), append(sp.hi, 3), append(sp.obj, 1)
		requireSameSolve(t, tag+" new column", solveTraced(got, nil, false), solveTraced(sp.build(), nil, false))
		old := rng.Perm(n)[:3]
		slices.Sort(old)
		extra := sparseRow{idx: append(old, n), coef: []float64{0.75, -0.5, 0.75, 1.5}, sense: GE, rhs: 1}
		sp.addRow(got, extra)
		sp.rows = append(sp.rows, extra)
		requireSameSolve(t, tag+" new row", solveTraced(got, nil, false), solveTraced(sp.build(), nil, false))

		// An iteration cap stops the solve after pivots, so Solution.Duals
		// must come from a fresh BTRAN, not the last computeDuals.
		for _, limit := range []int{coldIters / 2, coldIters - 1} {
			capped, capRef := sp.build(), sp.build()
			capped.MaxIters, capRef.MaxIters = max(limit, 1), max(limit, 1)
			requireSameSolve(t, fmt.Sprintf("%s %d-iteration cap", tag, limit),
				solveTraced(capped, nil, false), solveTraced(capRef, nil, true))
		}
	}
	if pivots < 1000 {
		t.Fatalf("only %d pivot rows over all seeds; the models are too easy to compare", pivots)
	}
}

// TestZeroPivotWarmResolveAllocs pins what a warm re-solve that pivots not
// at all allocates on a 600-row model: no per-row allocation is left, and
// the simplex arrays come back with the carried factorization, so the bytes
// are the Solution's and the handle's own.
func TestZeroPivotWarmResolveAllocs(t *testing.T) {
	m, _ := dualChain(600)
	sol, err := m.Solve()
	requireOptimal(t, sol, err)
	h := sol.Warm()
	resolve := func() {
		sol, err := m.SolveFrom(h)
		if err != nil || sol.Iters != 0 || !sol.Stats.FactorReused {
			t.Fatalf("re-solve: err %v, %d iterations, stats %+v; want 0 pivots on the carried factorization", err, sol.Iters, sol.Stats)
		}
		h = sol.Warm()
	}
	allocs := testing.AllocsPerRun(20, resolve)
	if allocs > 150 {
		t.Fatalf("zero-pivot warm re-solve of 600 rows: %.0f allocations, want ≤ 150", allocs)
	}
	// Bytes, the way AllocsPerRun counts allocations: one warm-up run, then
	// the mean over 20 at GOMAXPROCS 1. The bound is a tenth of the 418 KB
	// a zero-pivot re-solve of BenchmarkWarmResolveZeroPivot's 600-row LP
	// allocated while every solve built its simplex arrays afresh.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	resolve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		resolve()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 20
	if bytes > 41_800 {
		t.Fatalf("zero-pivot warm re-solve of 600 rows: %.0f bytes, want ≤ 41,800", bytes)
	}
	t.Logf("zero-pivot warm re-solve of 600 rows: %.0f allocations, %.0f bytes", allocs, bytes)
}

// BenchmarkWarmResolveZeroPivot re-solves a 600-row sparse LP from the
// handle of its own optimum, unchanged: the seat reuses the carried
// factorization and no pivot follows, so what it measures is the warm
// path's fixed cost per solve.
func BenchmarkWarmResolveZeroPivot(b *testing.B) {
	m := randomSparseSpec(rand.New(rand.NewSource(1)), 900, 600).build()
	sol, err := m.Solve()
	if err != nil {
		b.Fatal(err)
	}
	h := sol.Warm()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := m.SolveFrom(h)
		if err != nil || sol.Iters != 0 {
			b.Fatalf("re-solve: err %v, %d iterations", err, sol.Iters)
		}
		h = sol.Warm()
	}
}
