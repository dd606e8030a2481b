package main

import (
	"fmt"
	"os"
	"sort"
)

// runsPerSet is how many runs of each workload one set of the repeatability
// check makes.
const runsPerSet = 3

// exactCounts are the counts that must be identical across every run of a
// seed: lap 0's inputs depend on the seed alone, and so does all the work
// done on them.
var exactCounts = []string{"lp.iters", "check.cases_checked", "core.lp_rows"}

// quartiles returns the cut points Python's statistics.quantiles(vs, n=4)
// gives (the exclusive method), which is how the driver measures spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// worseBy is how much worse b is than a, as a share of a, in the direction
// the metric counts as worse; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// repeat is the repeatability check: sets of runs of the same code must
// agree within the benchmark's own bounds. Each set's spread (the distance
// between its quartiles as a share of its median) must stay within the
// bound, except for setup_s, and no set's median may be worse than the
// first set's by more than the bound. Counts that are a function of the
// seed must repeat exactly across all runs.
func (b *bench) repeat(sets int) error {
	ok := true
	for i := range workloads {
		sp := &workloads[i]
		values := make([]map[string][]float64, sets)
		counts := map[string]float64{}
		for set := range values {
			values[set] = map[string][]float64{}
			for n := 0; n < runsPerSet; n++ {
				res, err := b.run(sp, false, b.seconds)
				if err != nil {
					return err
				}
				e2e := res.endToEnd()
				for _, d := range endToEndDefs {
					values[set][d.name] = append(values[set][d.name], e2e[d.name])
				}
				traced, err := b.run(sp, true, b.seconds/2)
				if err != nil {
					return err
				}
				exact := map[string]float64{"throughput_ratio of lap 0": res.throughput(true)}
				for _, name := range exactCounts {
					exact[name] = traced.layer[name]
				}
				for name, v := range exact {
					if first, seen := counts[name]; !seen {
						counts[name] = v
					} else if first != v {
						fmt.Printf("%s: %s is %v, was %v in an earlier run of seed %d\n", sp.name, name, v, first, b.seed)
						ok = false
					}
				}
			}
		}
		fmt.Printf("%s seed %d, %d sets of %d runs\n", sp.name, b.seed, sets, runsPerSet)
		for _, d := range endToEndDefs {
			_, first, _ := quartiles(values[0][d.name])
			for set := range values {
				q1, q2, q3 := quartiles(values[set][d.name])
				spread, drift := ratio(q3-q1, q2), worseBy(d, first, q2)
				verdict := "ok"
				if (spread > d.bound && d.name != "setup_s") || drift > d.bound {
					verdict, ok = "OUTSIDE THE BOUND", false
				}
				fmt.Printf("  %-18s set %d: median %.6g %s (quartiles %.6g .. %.6g), spread %.2f%%, worse than set 1 by %.2f%%, bound %.0f%%: %s\n",
					d.name, set+1, q2, d.unit, q1, q3, 100*spread, 100*drift, 100*d.bound, verdict)
			}
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: the sets do not agree within the bounds")
		os.Exit(1)
	}
	return nil
}
