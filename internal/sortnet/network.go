package sortnet

// Comparator is one compare-swap wire pair in a comparator network. After
// application, position Lo holds the smaller value and position Hi the
// larger (for ascending networks Lo < Hi as indices).
type Comparator struct {
	A, B int // wire indices; the smaller value ends on A, larger on B
}

// Network is an ordered sequence of comparators. The sequence is fixed in
// advance (data-oblivious), which is precisely the property that lets the
// LP encoding in this package work: every comparator becomes a fixed set of
// linear constraints regardless of input values.
type Network []Comparator

// Apply runs the network over a copy of values and returns the result.
func (n Network) Apply(values []float64) []float64 {
	out := make([]float64, len(values))
	copy(out, values)
	n.ApplyInPlace(out)
	return out
}

// ApplyInPlace runs the network over values.
func (n Network) ApplyInPlace(values []float64) {
	for _, c := range n {
		if values[c.A] > values[c.B] {
			values[c.A], values[c.B] = values[c.B], values[c.A]
		}
	}
}

// OddEvenMergeSort returns Batcher's odd-even merge sorting network for n
// wires (n need not be a power of two; the construction pads virtually).
// It uses O(n·log²n) comparators and is included as the "practical sorting
// network" the paper contrasts against (§4.4.2); the tests encode it as an
// oracle for Bubble.
func OddEvenMergeSort(n int) Network {
	var net Network
	// Classic recursive construction over the padded size.
	p2 := 1
	for p2 < n {
		p2 <<= 1
	}
	var sortRange func(lo, cnt int)
	var merge func(lo, cnt, r int)
	merge = func(lo, cnt, r int) {
		step := r * 2
		if step < cnt {
			merge(lo, cnt, step)
			merge(lo+r, cnt, step)
			for i := lo + r; i+r < lo+cnt; i += step {
				if i < n && i+r < n {
					net = append(net, Comparator{A: i, B: i + r})
				}
			}
		} else if lo+r < n {
			net = append(net, Comparator{A: lo, B: lo + r})
		}
	}
	sortRange = func(lo, cnt int) {
		if cnt > 1 {
			m := cnt / 2
			sortRange(lo, m)
			sortRange(lo+m, m)
			merge(lo, cnt, 1)
		}
	}
	sortRange(0, p2)
	return net
}

// IsSortingNetwork verifies the zero-one principle: a comparator network
// sorts all inputs iff it sorts all 2^n boolean inputs. Usable only for
// small n (tests).
func IsSortingNetwork(net Network, n int) bool {
	for mask := 0; mask < 1<<uint(n); mask++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				v[i] = 1
			}
		}
		net.ApplyInPlace(v)
		for i := 1; i < n; i++ {
			if v[i] < v[i-1] {
				return false
			}
		}
	}
	return true
}
