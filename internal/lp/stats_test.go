package lp

import "testing"

// TestSolveStatsPopulated checks the work counters surface on Solution
// for a model with a fixed column and a vacuous row: the iteration split
// is consistent and fill-in is reported.
func TestSolveStatsPopulated(t *testing.T) {
	m := NewModel()
	x := m.NewVar("x", 0, 10)
	y := m.NewVar("y", 0, 10)
	f := m.NewVar("f", 3, 3) // fixed
	m.AddLE(NewExpr().Add(1, x).Add(1, y).Add(1, f), 9)
	m.AddGE(NewExpr().Add(1, x).Add(2, y), 4) // needs an artificial → phase 1
	m.AddLE(NewExpr().Add(1, f), 5)           // vacuous: only the fixed column
	m.Maximize(NewExpr().Add(2, x).Add(3, y))

	sol, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.Iters != sol.Iters {
		t.Errorf("Stats.Iters = %d, Solution.Iters = %d", st.Iters, sol.Iters)
	}
	if st.Phase1Iters < 0 || st.Phase1Iters > st.Iters {
		t.Errorf("Phase1Iters = %d outside [0, %d]", st.Phase1Iters, st.Iters)
	}
	if st.BasisNnz <= 0 {
		t.Errorf("BasisNnz = %d, want > 0", st.BasisNnz)
	}
}

// TestSolveStatsBothReps pins that both basis representations report
// fill-in.
func TestSolveStatsBothReps(t *testing.T) {
	for _, force := range []int8{1, 2} {
		m := NewModel()
		x := m.NewVar("x", 0, 5)
		y := m.NewVar("y", 0, 5)
		m.forceRep = force
		m.AddLE(NewExpr().Add(1, x).Add(1, y), 6)
		m.Maximize(NewExpr().Add(1, x).Add(2, y))
		sol, err := m.Solve()
		if err != nil {
			t.Fatalf("forceRep=%d: %v", force, err)
		}
		if sol.Stats.BasisNnz <= 0 {
			t.Errorf("forceRep=%d: BasisNnz = %d, want > 0", force, sol.Stats.BasisNnz)
		}
	}
}
