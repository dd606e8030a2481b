package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("same name must return the same handle")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.SetMax(3)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	r.Reset()
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("Reset must zero values")
	}
	if r.Counter("a") != c {
		t.Fatal("Reset must keep handle identity")
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
				r.Histogram("h").Observe(int64(i))
				r.Gauge("g").SetMax(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Fatalf("gauge = %d, want 999", got)
	}
}

func TestHistogramStats(t *testing.T) {
	h := newHistogram()
	if h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for _, v := range []int64{10, 20, 30, 40, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1100 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Min() != 10 || h.Max() != 1000 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
	if got := h.Mean(); got != 220 {
		t.Fatalf("mean=%v", got)
	}
	// Bucketed quantiles are factor-of-two estimates: the median of
	// {10,20,30,40,1000} is 30; accept anything inside the [16,64)
	// bucket span but demand it is far from both tails.
	if q := h.Quantile(0.5); q < 16 || q > 64 {
		t.Fatalf("p50=%d, want within [16,64]", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100=%d, want 1000 (clamped to max)", q)
	}
	if q := h.Quantile(0); q != 10 {
		t.Fatalf("p0=%d, want 10 (clamped to min)", q)
	}
	h.Observe(-5) // clamps to 0
	if h.Min() != 0 {
		t.Fatalf("negative observation must clamp to 0, min=%d", h.Min())
	}
}

func TestSpanRecordsOnlyWhenEnabled(t *testing.T) {
	defer Disable()
	Disable()
	Default().Reset()

	s := StartSpan("t.root")
	if s.Active() {
		t.Fatal("span started while disabled must be inert")
	}
	if c := s.Child("sub"); c.Active() {
		t.Fatal("child of inert span must be inert")
	}
	s.End()
	if got := Default().Histogram("t.root").Count(); got != 0 {
		t.Fatalf("inert span recorded %d samples", got)
	}

	Enable()
	s = StartSpan("t.root")
	c := s.Child("sub")
	time.Sleep(time.Millisecond)
	c.End()
	s.End()
	if got := Default().Histogram("t.root").Count(); got != 1 {
		t.Fatalf("root span count = %d, want 1", got)
	}
	sub := Default().Histogram("t.root/sub")
	if sub.Count() != 1 || sub.Max() < int64(time.Millisecond)/2 {
		t.Fatalf("child span count=%d max=%d", sub.Count(), sub.Max())
	}
}

func TestSnapshotDeterministicAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("mid").Set(3)
	r.Histogram("root").Observe(100)
	r.Histogram("root/child").Observe(50)

	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two JSON dumps of the same state differ")
	}
	s := r.Snapshot()
	if s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}

	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"a.first", "z.last", "mid", "root", "child"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text dump missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTextUnits: duration histograms print as durations, value
// histograms as the numbers they hold, whichever handle a caller asks for
// after registration.
func TestWriteTextUnits(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").ObserveDuration(1500 * time.Microsecond)
	r.ValueHistogram("kept").Observe(39)
	r.Histogram("kept").Observe(41)

	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	fields := map[string][]string{}
	for _, line := range strings.Split(txt.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			fields[f[0]] = f[1:]
		}
	}
	if got := fields["lat"]; len(got) != 6 || got[0] != "1.5ms" || got[4] != "1.5ms" || got[5] != "×1" {
		t.Fatalf("duration histogram: got %q, want 1.5ms total and max over 1", got)
	}
	if got := fields["kept"]; len(got) != 6 || got[0] != "80" || got[1] != "40" || got[4] != "41" || got[5] != "×2" {
		t.Fatalf("value histogram: got %q, want total 80, mean 40, max 41 over 2", got)
	}
	if s := r.Snapshot(); !s.Spans[0].Plain || s.Spans[1].Plain {
		t.Fatalf("snapshot plain flags: %+v", s.Spans)
	}
}
