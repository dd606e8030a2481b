// Package obs is the repository's lightweight observability layer:
// counters, gauges, latency histograms, and hierarchical span timers,
// with text/JSON exporters and an expvar/pprof debug server.
//
// Design rules, in priority order:
//
//   - Off-path cost is near zero. The hot paths (simplex pivots, per-case
//     verification) accumulate into their own local state as they always
//     did and publish ONE batch of atomic adds per solve/verify; nothing
//     per-iteration touches this package. Span timers and per-worker
//     timings call time.Now only when Enabled() is true.
//   - No allocation on the publish path. Instrumented packages hold
//     package-level *Counter/*Histogram handles created at init; Observe
//     and Add are single atomic operations into fixed arrays.
//   - Exports are deterministic: snapshots are sorted by name, so two
//     dumps of the same state are byte-identical.
//
// Metrics live in a Registry; the package-level Default registry is what
// the binaries dump behind their -stats flags and serve behind
// -debug-addr.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates the instrumentation that costs real work when on (span
// timers, per-worker busy timings, latency histograms). Plain counters
// stay live regardless — one atomic add per solve is cheaper than
// auditing every publish site for the gate.
var enabled atomic.Bool

// Enable turns on spans, histograms, and per-worker timings.
func Enable() { enabled.Store(true) }

// Disable restores the near-zero-cost default.
func Disable() { enabled.Store(false) }

// Enabled reports whether the costlier instrumentation is active.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is a last-value (or high-watermark) metric.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// SetMax raises the gauge to n if n is larger.
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; handles returned by Counter/Gauge/Histogram are stable
// for the registry's lifetime (Reset zeroes values, never identities).
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

var def = NewRegistry()

// Default returns the process-wide registry used by the package-level
// helpers, the -stats dumps, and the debug server.
func Default() *Registry { return def }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every metric's value. Registered handles stay valid.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counts {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

func (r *Registry) sortedCounterNames() []string {
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) sortedGaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) sortedHistNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewCounter registers (or fetches) a counter in the Default registry.
// Instrumented packages call it from package-level var initializers so
// the publish path is a single atomic add.
func NewCounter(name string) *Counter { return def.Counter(name) }

// NewGauge registers (or fetches) a gauge in the Default registry.
func NewGauge(name string) *Gauge { return def.Gauge(name) }

// NewHistogram registers (or fetches) a histogram in the Default registry.
func NewHistogram(name string) *Histogram { return def.Histogram(name) }
