package sortnet

import (
	"math"
	"sort"
	"testing"
)

// FuzzPartialBubbleVsSort fuzzes every emitter — the partial bubble
// sorting network, the compact dual and explicit subsets — against plain
// sorting (sort.Slice): with the inputs pinned by variable bounds,
// minimizing the epigraph of the encoded top-M sum (resp. maximizing the
// bottom-M one) must recover exactly the sum of the M largest (smallest)
// values — each encoding is tight on constants. Values are byte-derived
// quarters, so the oracle's sums are exact in float64. M may exceed n to
// exercise the emitters' clamping.
func FuzzPartialBubbleVsSort(f *testing.F) {
	f.Add(uint8(1), []byte{10, 20, 30})
	f.Add(uint8(3), []byte{5, 5, 5, 5})
	f.Add(uint8(7), []byte{0})
	f.Add(uint8(2), []byte{255, 0, 128, 64, 32, 16, 8, 4})
	f.Fuzz(func(t *testing.T, mRaw uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		n := len(data)
		if n > 8 {
			n = 8 // keep each LP tiny; the network is uniform in n
		}
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = float64(data[i]) / 4
		}
		M := 1 + int(mRaw)%(n+2)

		sorted := append([]float64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		var top, bottom float64
		for i := 0; i < M && i < n; i++ {
			top += sorted[i]
			bottom += sorted[n-1-i]
		}

		for _, enc := range emitters {
			if got := solveEpigraph(t, enc.emit, vals, M, true); math.Abs(got-top) > 1e-6*(1+top) {
				t.Fatalf("%s largest: min Σtop%d = %v, sort.Slice says %v (vals %v)", enc.name, M, got, top, vals)
			}
			if got := solveEpigraph(t, enc.emit, vals, M, false); math.Abs(got-bottom) > 1e-6*(1+bottom) {
				t.Fatalf("%s smallest: max Σbottom%d = %v, sort.Slice says %v (vals %v)", enc.name, M, got, bottom, vals)
			}
		}
	})
}
