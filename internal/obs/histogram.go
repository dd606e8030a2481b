package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets covers every non-negative int64: bucket b holds values v
// with bits.Len64(v) == b, i.e. [2^(b-1), 2^b). Bucket 0 holds exactly 0.
const histBuckets = 64

// Histogram is a fixed-size, allocation-free, concurrency-safe histogram
// of non-negative int64 samples with power-of-two buckets. Span timers
// record nanosecond durations into these, so quantiles carry roughly
// a factor-of-two resolution — plenty for "where does the time go" and
// cheap enough to sit on a per-interval solve path.
type Histogram struct {
	// plain marks samples that are numbers (counts, percentages), not
	// nanoseconds; dumps print them as such.
	plain   atomic.Bool
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 when empty
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))%histBuckets].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Nanoseconds()) }

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average sample, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Min returns the smallest sample, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest sample, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) by locating
// the bucket holding the q-th sample and interpolating linearly inside
// its [2^(b-1), 2^b) range. Resolution is therefore about a factor of
// two; exact for min/max, and clamped to them.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(n-1)
	var seen float64
	for b := 0; b < histBuckets; b++ {
		c := float64(h.buckets[b].Load())
		if c == 0 {
			continue
		}
		if seen+c > rank {
			var lo, hi float64
			if b == 0 {
				lo, hi = 0, 0
			} else {
				lo = math.Exp2(float64(b - 1))
				hi = math.Exp2(float64(b)) - 1
			}
			frac := (rank - seen + 0.5) / c
			v := int64(lo + frac*(hi-lo))
			if m := h.Min(); v < m {
				v = m
			}
			if m := h.Max(); v > m {
				v = m
			}
			return v
		}
		seen += c
	}
	return h.Max()
}
