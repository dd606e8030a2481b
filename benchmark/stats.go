package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0–100) of vs by linear
// interpolation between order statistics. A failed operation is +Inf: it
// sorts last, and a percentile that reaches into the failed ones is +Inf
// too, so a failure misses any latency limit. An empty slice gives NaN.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// tailPercentile is the highest of 50, 75, 90, 95, 99 with at least ten
// samples beyond it, which is as far into the tail as n samples support.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99} {
		if float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func mean(vs []float64) float64 { return ratio(sum(vs), float64(len(vs))) }

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
