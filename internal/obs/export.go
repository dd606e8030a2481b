package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// CounterSnap is one counter or gauge in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram in a Snapshot. Values are in the histogram's
// native unit — nanoseconds for span timers and worker-busy timings, plain
// numbers when Plain is set.
type HistSnap struct {
	Name  string  `json:"name"`
	Plain bool    `json:"plain,omitempty"`
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot is a point-in-time, deterministically ordered copy of a
// registry's metrics. Two snapshots of the same state marshal to
// identical bytes.
type Snapshot struct {
	Counters []CounterSnap `json:"counters"`
	Gauges   []CounterSnap `json:"gauges,omitempty"`
	Spans    []HistSnap    `json:"spans,omitempty"`
}

// Snapshot captures all metrics sorted by name.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{}
	for _, n := range r.sortedCounterNames() {
		s.Counters = append(s.Counters, CounterSnap{Name: n, Value: r.counts[n].Value()})
	}
	for _, n := range r.sortedGaugeNames() {
		s.Gauges = append(s.Gauges, CounterSnap{Name: n, Value: r.gauges[n].Value()})
	}
	for _, n := range r.sortedHistNames() {
		h := r.hists[n]
		s.Spans = append(s.Spans, HistSnap{
			Name:  n,
			Plain: h.plain.Load(),
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			Min:   h.Min(),
			Max:   h.Max(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		})
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteText writes a human-readable dump: counters and gauges as aligned
// name/value pairs, histograms as a "/"-indented span tree with duration
// formatting, plain-number histograms as numbers.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		width := 0
		for _, c := range s.Counters {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		for _, c := range s.Counters {
			if _, err := fmt.Fprintf(w, "  %-*s %d\n", width, c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range s.Gauges {
			if _, err := fmt.Fprintf(w, "  %s %d\n", g.Name, g.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Spans) > 0 {
		fmt.Fprintln(w, "spans (total mean p50 p99 max over count):")
		for _, h := range s.Spans {
			if h.Count == 0 {
				continue
			}
			depth := strings.Count(h.Name, "/")
			v := func(x int64) any {
				if h.Plain {
					return x
				}
				return time.Duration(x)
			}
			if _, err := fmt.Fprintf(w, "  %s%-*s %10v %10v %10v %10v %10v ×%d\n",
				strings.Repeat("  ", depth), 36-2*depth, h.Name,
				v(h.Sum), v(int64(h.Mean)), v(h.P50), v(h.P99), v(h.Max), h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
