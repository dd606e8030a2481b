package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the program. Spans of one interval share (Lap, Interval); Parent
// is the ID of the span that caused this one, -1 at the root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Lap      int    `json:"lap"`
	Interval int    `json:"interval"`
	// Diagnostic marks calls only the traced run makes; they are left out
	// when the traced run is compared with the untraced one.
	Diagnostic bool    `json:"diagnostic,omitempty"`
	StartUs    float64 `json:"start_us"`
	EndUs      float64 `json:"end_us"`
}

func (s *span) ms() float64 { return (s.EndUs - s.StartUs) / 1e3 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; timing a call costs the same two clock reads either way, so the
// untraced run measures the same code path.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// scope locates a span: its parent and the interval it belongs to.
type scope struct {
	tr            *tracer
	parent        int
	lap, interval int
}

// do times fn, records it as a child of sc when tracing, and returns the
// child's scope and the elapsed time.
func (sc scope) do(name string, fn func(scope)) time.Duration {
	return sc.run(name, false, fn)
}

// diag is do for a call the untraced run never makes.
func (sc scope) diag(name string, fn func(scope)) time.Duration {
	return sc.run(name, true, fn)
}

func (sc scope) run(name string, diagnostic bool, fn func(scope)) time.Duration {
	child := sc
	tr := sc.tr
	if tr != nil {
		child.parent = len(tr.spans)
		tr.spans = append(tr.spans, span{
			ID: child.parent, Parent: sc.parent, Name: name, Workload: tr.workload,
			Lap: sc.lap, Interval: sc.interval, Diagnostic: diagnostic,
		})
	}
	start := time.Now()
	fn(child)
	end := time.Now()
	if tr != nil {
		s := &tr.spans[child.parent]
		s.StartUs = float64(start.Sub(tr.t0).Nanoseconds()) / 1e3
		s.EndUs = float64(end.Sub(tr.t0).Nanoseconds()) / 1e3
	}
	return end.Sub(start)
}

// durations lists the lengths, in milliseconds, of the spans called name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for i := range tr.spans {
		if tr.spans[i].Name == name {
			out = append(out, tr.spans[i].ms())
		}
	}
	return out
}

// selfTimes returns each layer's self time in milliseconds — its spans
// minus the part their direct children cover — and the share of the
// "interval" spans that their children account for.
func (tr *tracer) selfTimes() (self map[string]float64, coveragePct float64) {
	children := make([]float64, len(tr.spans))
	for i := range tr.spans {
		if p := tr.spans[i].Parent; p >= 0 {
			children[p] += tr.spans[i].ms()
		}
	}
	self = map[string]float64{}
	var intervals, covered float64
	for i := range tr.spans {
		s := &tr.spans[i]
		self[s.Name] += s.ms() - children[i]
		if s.Name == "interval" {
			intervals += s.ms()
			covered += children[i]
		}
	}
	return self, 100 * ratio(covered, intervals)
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	SelfMs      map[string]float64 `json:"self_ms"`
	CoveragePct float64            `json:"interval_coverage_pct"`
	Spans       []span             `json:"spans"`
}

func (tr *tracer) write(dir string, seed int64) error {
	self, cov := tr.selfTimes()
	blob, err := json.MarshalIndent(traceFile{tr.workload, seed, self, cov, tr.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+tr.workload+".json"), blob, 0o644)
}
