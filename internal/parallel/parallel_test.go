package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// setProcs pins GOMAXPROCS, which ForEach sizes its pool by, for the rest
// of the test. Tests that call it must not run in parallel.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		setProcs(t, w)
		const n = 1000
		counts := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("w=%d: index %d visited %d times", w, i, c)
			}
		}
	}
}

func TestForEachEmptyAndSmall(t *testing.T) {
	setProcs(t, 8)
	ForEach(0, func(int) { t.Fatal("called for n=0") })
	hit := false
	ForEach(1, func(i int) { hit = i == 0 })
	if !hit {
		t.Fatal("n=1 not visited")
	}
}

func TestForEachSerialIsOrdered(t *testing.T) {
	setProcs(t, 1)
	var order []int
	ForEach(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestFirstError(t *testing.T) {
	e1, e2 := errors.New("a"), errors.New("b")
	if err := FirstError([]error{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if err := FirstError([]error{nil, e1, e2}); err != e1 {
		t.Fatalf("got %v, want first error", err)
	}
}
