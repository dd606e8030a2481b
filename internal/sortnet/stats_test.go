package sortnet

import (
	"testing"

	"ffc/internal/lp"
)

// TestComparatorCount pins the comparator arithmetic of the partial
// bubble network: pass p over the remaining N−p wires uses N−1−p
// compare-swaps, so M passes over N inputs emit Σ_{p<M} (N−1−p), each
// contributing 2 vars and 3 constraints, plus the one bound row. Compact
// has no comparators: N+1 vars, N constraints and the bound row.
func TestComparatorCount(t *testing.T) {
	const N, M = 5, 2
	m := lp.NewModel()
	exprs := make([]*lp.Expr, N)
	for i := range exprs {
		v := m.NewVar("x", 0, 10)
		exprs[i] = lp.NewExpr().Add(1, v)
	}
	want := (N - 1) + (N - 2) // 7
	before := obsNetComparators.Value()
	if vars, cons := Bubble(m, exprs, M, true, "net", func(*lp.Expr) {}); vars != 2*want || cons != 3*want+1 {
		t.Fatalf("bubble vars=%d cons=%d, want %d and %d", vars, cons, 2*want, 3*want+1)
	}
	if got := obsNetComparators.Value() - before; got != int64(want) {
		t.Fatalf("comparators = %d, want %d", got, want)
	}
	if vars, cons := Compact(m, exprs, M, true, "k", func(*lp.Expr) {}); vars != N+1 || cons != N+1 {
		t.Fatalf("compact vars=%d cons=%d, want %d and %d", vars, cons, N+1, N+1)
	}
}
