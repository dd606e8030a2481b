package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	// Two of five failed: the median is still a real latency, p90 is not.
	vs := []float64{inf, 10, 30, inf, 20}
	if got := median(vs); got != 30 {
		t.Errorf("median with 2 of 5 failed = %v, want 30", got)
	}
	if got := percentile(vs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 2 of 5 failed = %v, want +Inf", got)
	}
	// Half failed: the median reaches into the failures.
	if got := median([]float64{1, inf}); !math.IsInf(got, 1) {
		t.Errorf("median with half failed = %v, want +Inf", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v", q1, q2, q3)
	}
}

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s: name %q or unit %q is malformed or used twice", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.bound || w.bound <= 0 || w.bound > 0.25)) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the benchmark", kind, g.Name, g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs, true)
	check("per_layer", bj.PerLayer, perLayerDefs, false)
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
}

// miniature is the library path on the paper's 8-switch testbed: small
// enough for tier-1, through the same laps as the real workloads.
var miniature = spec{name: "testbed-mini", net: "testbed", prot: protection{2, 1, 0}, warmups: 1, timed: 3}

func TestMiniatureWorkloadThroughTheFullPath(t *testing.T) {
	out := t.TempDir()
	res, err := (&bench{seed: 1, outDir: out}).run(&miniature, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted() != 3 || res.failed() != 0 || !res.correct() || len(res.setups) != 1 {
		t.Fatalf("attempted %d failed %d (%v) correct %v laps %d", res.attempted(), res.failed(), res.reasons(), res.correct(), len(res.setups))
	}
	for _, d := range endToEndDefs {
		if v := res.endToEnd()[d.name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s = %v", d.name, v)
		}
	}
	if len(res.layer) != len(perLayerDefs) {
		t.Errorf("%d per-layer metrics, want %d", len(res.layer), len(perLayerDefs))
	}
	for _, name := range []string{"core.solve_ms", "core.build_cold_ms", "lp.iters", "check.cases_checked", "wire.plan_bytes", "sortnet.bubble_rows", "tunnel.tunnels"} {
		if !(res.layer[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, res.layer[name])
		}
	}
	if cov := res.layer["trace.coverage_pct"]; cov < 95 {
		t.Errorf("layer spans cover %.1f%% of the interval spans, want >= 95%%", cov)
	}
	if len(res.refMs) != 3 {
		t.Errorf("untraced repeat of lap 0 has %d intervals, want 3", len(res.refMs))
	}
	if _, err := res.line(); err != nil {
		t.Error(err)
	}
	var tf traceFile
	blob, err := os.ReadFile(filepath.Join(out, "trace-testbed-mini.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &tf); err != nil || len(tf.Spans) == 0 || tf.SelfMs["core.solve"] <= 0 {
		t.Errorf("trace file: %v, %d spans, self times %v", err, len(tf.Spans), tf.SelfMs)
	}

	// The same seed does the same work: totals and counts repeat exactly.
	again, err := (&bench{seed: 1, outDir: out, golden: res.totals}).run(&miniature, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.failed() != 0 {
		t.Errorf("second run drifted from the first one's totals: %v", again.reasons())
	}
	for _, name := range exactCounts {
		if res.layer[name] != again.layer[name] {
			t.Errorf("%s: %v then %v for the same seed", name, res.layer[name], again.layer[name])
		}
	}
	// And a wrong golden total is a counted failure, not a harness error.
	// (The last interval: a failed one keeps the previous plan installed, so
	// every interval after it solves a different chain.)
	res.totals.note(miniature.name, 0, 4, 2*res.totals[miniature.name][0][3])
	drift, err := (&bench{seed: 1, outDir: out, golden: res.totals}).run(&miniature, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if drift.reasons()["golden-drift"] != 1 || drift.correct() {
		t.Errorf("doubled golden total: reasons %v, correct %v", drift.reasons(), drift.correct())
	}
}

func TestChurnInputsDependOnTheSeedAlone(t *testing.T) {
	sp := spec{name: "churn-mini", net: "testbed", prot: protection{0, 1, 0}, warmups: 1, timed: 7, daemon: true}
	gen := func(seed int64) *churnInputs {
		in, err := genChurnInputs(scope{parent: -1}, &sp, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !bytes.Equal(a.topo, b.topo) || !bytes.Equal(a.demands, b.demands) || !reflect.DeepEqual(a.frames, b.frames) {
		t.Error("the same seed gave different topology, demand or update files")
	}
	if bytes.Equal(a.demands, c.demands) {
		t.Error("different seeds gave the same demands")
	}
	if len(a.frames) != 8 || !bytes.Contains(a.frames[5], []byte(`"op":"link"`)) || !bytes.Contains(a.frames[0], []byte(`"op":"demands"`)) {
		t.Errorf("update 6 of 8 should be the link-down: %s", a.frames[5])
	}
}

func TestRealDaemonPath(t *testing.T) {
	out, err := filepath.Abs("out/test")
	if err != nil {
		t.Fatal(err)
	}
	ffcd := filepath.Join(out, "ffcd")
	build := exec.Command("go", "build", "-o", ffcd, "./cmd/ffcd")
	build.Dir = ".."
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/ffcd: %v\n%s", err, msg)
	}
	sp := spec{name: "churn-mini", net: "testbed", prot: protection{0, 1, 0}, warmups: 1, timed: 2, daemon: true}
	res, err := (&bench{seed: 1, ffcd: ffcd, outDir: out}).run(&sp, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted() != 2 || res.failed() != 0 || !res.correct() {
		t.Fatalf("attempted %d failed %d (%v) correct %v", res.attempted(), res.failed(), res.reasons(), res.correct())
	}
	for _, name := range []string{"ctrl.boot_ms", "ctrl.install_ms", "ctrl.solve_mean_ms", "ctrl.peak_rss_mb", "wire.plan_bytes", "wire.update_bytes"} {
		if !(res.layer[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, res.layer[name])
		}
	}
	if res.layer["ctrl.cert_failures"] != 0 || res.layer["ctrl.query_failures"] != 0 {
		t.Errorf("cert failures %v, query failures %v", res.layer["ctrl.cert_failures"], res.layer["ctrl.query_failures"])
	}
	if _, err := res.line(); err != nil {
		t.Error(err)
	}
}
