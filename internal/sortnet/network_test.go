package sortnet

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestOddEvenMergeSortIsSortingNetwork(t *testing.T) {
	for n := 1; n <= 12; n++ {
		if !IsSortingNetwork(OddEvenMergeSort(n), n) {
			t.Fatalf("OddEvenMergeSort(%d) does not sort", n)
		}
	}
}

// TestOddEvenCheaperThanBubble: Batcher's network beats a full bubble
// sort's n·(n−1)/2 comparators.
func TestOddEvenCheaperThanBubble(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		if got, bubble := len(OddEvenMergeSort(n)), n*(n-1)/2; got >= bubble {
			t.Fatalf("n=%d: odd-even %d comparators ≥ bubble %d", n, got, bubble)
		}
	}
}

func TestApplyDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = OddEvenMergeSort(3).Apply(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Apply mutated its input: %v", in)
	}
}

// Property: sorting network output is a sorted permutation of the input.
func TestNetworkSortsPermutationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 || len(raw) > 16 {
			return true
		}
		out := OddEvenMergeSort(len(raw)).Apply(raw)
		if !sort.Float64sAreSorted(out) {
			return false
		}
		in := append([]float64(nil), raw...)
		sort.Float64s(in)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
