package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics returns what the run reports: the end-to-end metrics of an
// untraced run, the per-layer ones of a traced run.
func (r *result) metrics() (kind string, defs []metricDef, values map[string]float64) {
	if r.layer != nil {
		return "per layer, traced", perLayerDefs, r.layer
	}
	return "end to end", endToEndDefs, r.endToEnd()
}

func (r *result) line() (resultLine, error) {
	_, defs, values := r.metrics()
	out := resultLine{Correct: r.correct(), Attempted: r.attempted(), Failed: r.failed(), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("%s: metric %s is %v (%d of %d intervals failed: %v)",
				r.spec.name, d.name, v, r.failed(), r.attempted(), r.reasons())
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	return out, nil
}

// print writes every metric of the run by name, with its unit.
func (r *result) print(w io.Writer) {
	kind, defs, values := r.metrics()
	fmt.Fprintf(w, "%s seed %d (%s): %d laps, %d intervals in %.1f s\n",
		r.spec.name, r.seed, kind, len(r.setups), r.attempted(), r.timedS)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(w, "  %-28s %14d\n  %-28s %14d", "ops_attempted", r.attempted(), "ops_failed", r.failed())
	reasons := r.reasons()
	names := make([]string, 0, len(reasons))
	for name := range reasons {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s=%d", name, reasons[name])
	}
	if n := r.daemon.queryFailures; n > 0 {
		fmt.Fprintf(w, "  reader-torn-or-backwards=%d", n)
	}
	fmt.Fprintln(w)
}

func (r *result) printLine(w io.Writer) error {
	l, err := r.line()
	if err != nil {
		return err
	}
	blob, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
