package ctrl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// syncBuffer serializes trace writes against test reads (install runs on
// the recompute goroutine).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() [][]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out [][]byte
	for _, l := range bytes.Split(b.buf.Bytes(), []byte("\n")) {
		if len(bytes.TrimSpace(l)) > 0 {
			out = append(out, append([]byte(nil), l...))
		}
	}
	return out
}

// TestCertifyInstalls: every recompute's install is certified, none fail,
// and the trace records replay cleanly.
func TestCertifyInstalls(t *testing.T) {
	cfg := testConfig(t)
	trace := &syncBuffer{}
	cfg.TraceWriter = trace

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	p := waitSeq(t, c, 1)
	c.Kick()
	waitSeq(t, c, p.Seq+1)
	c.Stop()

	s := c.Stats()
	if s.CertRuns < 2 {
		t.Fatalf("cert runs %d, want >= 2", s.CertRuns)
	}
	if s.CertFailures != 0 {
		t.Fatalf("cert failures %d on healthy solves", s.CertFailures)
	}
	if s.CertMsMean <= 0 || s.CertCasesLast <= 0 {
		t.Fatalf("cert_ms_mean %g, cert_cases_last %d: want both recorded", s.CertMsMean, s.CertCasesLast)
	}

	lines := trace.Lines()
	if len(lines) < 2 {
		t.Fatalf("trace has %d records, want >= 2", len(lines))
	}
	replayTrace(t, cfg.Net, lines, check.Params{Prot: cfg.Prot})
}

// replayTrace certifies every trace record offline, the way ffccheck
// -trace does: records run seq 1, 2, …, degraded ones certify at zero
// protection, and the rest at p.Prot.
func replayTrace(t *testing.T, net *topology.Network, lines [][]byte, p check.Params) {
	t.Helper()
	for i, line := range lines {
		rec, err := wire.ParseTraceRecord(line)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("trace line %d: seq %d, want %d", i, rec.Seq, i+1)
		}
		// Each record must certify on a set rebuilt purely from its own
		// recorded paths — the offline ffccheck replay path.
		set, err := wire.TunnelSetFromState(net, &rec.State)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		st, err := wire.ResolveState(net, set, &rec.State)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		q := p
		if rec.Degraded != "" {
			q.Prot = core.None
		}
		cert, err := check.Certify(net, set, st, st, q)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		if !cert.OK {
			t.Fatalf("trace line %d fails offline certification: %+v", i, cert.Violation)
		}
	}
}

// TestCertifyRestoredSnapshot: a healthy snapshot re-certifies at boot and
// serves restored; the certification counts as a run.
func TestCertifyRestoredSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "ffcd.snap")
	cfg := testConfig(t)
	cfg.SnapshotPath = snap

	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1.Start()
	waitSeq(t, c1, 1)
	c1.Stop()

	cfg2 := cfg
	cfg2.FirstSolveDelay = time.Hour
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()
	p := c2.GetPlan()
	if !p.Restored {
		t.Fatalf("healthy snapshot did not restore: %+v", p.Meta())
	}
	if s := c2.Stats(); s.CertRuns != 1 || s.CertFailures != 0 {
		t.Fatalf("boot certification: %d runs %d failures, want 1/0", s.CertRuns, s.CertFailures)
	}
	if m := p.Meta(); !m.Certified || m.WorstSlack == nil {
		t.Fatalf("restored plan's metadata does not carry its certificate: %+v", m)
	}
}

// TestServesOnlyCertifiedPlans: the checker sees (through the certCapacity
// override) the three links that only flow s3→s2 uses (one on each of its
// tunnels) at capacity cSmall, below
// what the solver may use. Every update alternates that flow's demand
// between fitting under cSmall and needing more than 2·cSmall, which no
// ke=1 plan can carry over the three links. The oversized solves must
// fail certification and be served as the certified "uncertified"
// fallback, while a GetPlan hammer confirms that no served plan ever loads
// those links beyond cSmall.
func TestServesOnlyCertifiedPlans(t *testing.T) {
	const (
		cSmall   = 1.0
		fits     = 1.0
		oversize = 8.0
		updates  = 10
	)
	cfg := testConfig(t)
	net := cfg.Net
	sw := func(name string) topology.SwitchID {
		id, _ := net.SwitchByName(name)
		return id
	}
	cut := map[topology.LinkID]float64{}
	for _, pair := range [][2]string{{"s3", "s2"}, {"s3", "s1"}, {"s4", "s2"}} {
		cut[net.FindLink(sw(pair[0]), sw(pair[1]))] = cSmall
	}
	cfg.Demands[tunnel.Flow{Src: sw("s3"), Dst: sw("s2")}] = fits
	trace := &syncBuffer{}
	cfg.TraceWriter = trace

	// cutLoad is the no-fault traffic a served plan puts on the most
	// loaded cut link.
	cutLoad := func(p *Plan) float64 {
		loads := map[topology.LinkID]float64{}
		for _, fl := range p.File.Flows {
			for _, ta := range fl.Tunnels {
				for h := 1; h < len(ta.Path); h++ {
					l := net.FindLink(sw(ta.Path[h-1]), sw(ta.Path[h]))
					if _, ok := cut[l]; ok {
						loads[l] += fl.Rate * ta.Weight
					}
				}
			}
		}
		worst := 0.0
		for _, load := range loads {
			worst = math.Max(worst, load)
		}
		return worst
	}

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.certCapacity = cut
	if m := c.GetPlan().Meta(); m.Certified || m.WorstSlack != nil {
		t.Fatalf("unsolved placeholder claims a certificate: %+v", m)
	}
	c.Start()
	defer c.Stop()
	prev := waitSeq(t, c, 1)

	stop := make(chan struct{})
	errs := make(chan error, 1)
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := c.GetPlan()
			err := checkPlan(p)
			if m := p.Meta(); err == nil && (!m.Certified || m.WorstSlack == nil) {
				err = fmt.Errorf("seq %d served without a certificate: %+v", p.Seq, m)
			}
			if load := cutLoad(p); err == nil && load > cSmall+1e-9 {
				err = fmt.Errorf("seq %d served with load %g > %g on a cut link", p.Seq, load, cSmall)
			}
			if err != nil {
				errs <- err
				return
			}
			reads.Add(1)
		}
	}()

	oversized := int64(0)
	for i := 1; i <= updates; i++ {
		d, want := fits, ""
		if i%2 == 1 {
			d, want = oversize, "uncertified"
			oversized++
		}
		if err := c.Apply(&wire.Update{Op: wire.UpdateDemands, Demands: []wire.DemandEntry{
			{Src: "s3", Dst: "s2", Demand: d},
		}}); err != nil {
			t.Fatal(err)
		}
		p := waitSeq(t, c, prev.Seq+1)
		if p.Degraded != want {
			t.Fatalf("update %d (demand %g): served degraded %q, want %q", i, d, p.Degraded, want)
		}
		prev = p
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if reads.Load() == 0 {
		t.Fatal("hammer read nothing")
	}
	s := c.Stats()
	if s.CertFailures != oversized || s.DegradedInstalls != oversized {
		t.Fatalf("cert_failures %d, degraded_installs %d; want %d each", s.CertFailures, s.DegradedInstalls, oversized)
	}
	c.Stop()
	// The trace holds exactly the served plans: the boot solve and one per
	// update, none of the rejected ones.
	lines := trace.Lines()
	if len(lines) != updates+1 {
		t.Fatalf("trace has %d records, want %d", len(lines), updates+1)
	}
	replayTrace(t, net, lines, check.Params{Prot: cfg.Prot, Capacity: cut})
}

// writeHealthySnapshot runs a controller to seq>=1 with a snapshot path
// and returns the snapshot bytes and config used.
func writeHealthySnapshot(t *testing.T) (Config, string, []byte) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "ffcd.snap")
	cfg := testConfig(t)
	cfg.SnapshotPath = snap
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	waitSeq(t, c, 1)
	c.Stop()
	blob, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, snap, blob
}

// TestSnapshotRestoreTruncated: a truncated snapshot file must not
// restore — the controller boots with the seq-0 unsolved placeholder and
// no error (crash recovery best-effort, never boot-blocking).
func TestSnapshotRestoreTruncated(t *testing.T) {
	cfg, snap, blob := writeHealthySnapshot(t)
	for _, frac := range []int{2, 4, 10} {
		if err := os.WriteFile(snap, blob[:len(blob)/frac], 0o644); err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.FirstSolveDelay = time.Hour
		c, err := New(cfg2)
		if err != nil {
			t.Fatalf("truncation 1/%d: New errored: %v", frac, err)
		}
		p := c.GetPlan()
		if p.Restored || p.Seq != 0 || p.Degraded != "unsolved" {
			t.Fatalf("truncation 1/%d: restored a broken snapshot: %+v", frac, p.Meta())
		}
		if c.Stats().RestoredAtBoot {
			t.Fatalf("truncation 1/%d: stats claim a restore", frac)
		}
	}
}

// TestSnapshotRestoreCorrupted: garbage, a wrong version, a snapshot naming
// unknown switches and one carrying a value an update frame may not set
// all refuse to restore.
func TestSnapshotRestoreCorrupted(t *testing.T) {
	cfg, snap, blob := writeHealthySnapshot(t)

	var parsed map[string]interface{}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}
	wrongVersion, _ := json.Marshal(map[string]interface{}{"version": 99})
	// edit returns the healthy snapshot with one value changed.
	edit := func(fn func(snap map[string]interface{}, demand0 map[string]interface{})) []byte {
		var snap map[string]interface{}
		if err := json.Unmarshal(blob, &snap); err != nil {
			t.Fatal(err)
		}
		fn(snap, snap["demands"].([]interface{})[0].(map[string]interface{}))
		out, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cases := []struct {
		name    string
		blob    []byte
		wantErr bool // New must error (half-applied desired state is worse than no restore)
	}{
		{"garbage", []byte("{not json"), false},
		{"empty", nil, false},
		{"wrong-version", wrongVersion, false},
		{"unknown-switch", []byte(strings.Replace(string(blob), `"s2"`, `"zz"`, 1)), true},
		// A snapshot's values pass the checks an update frame passes.
		{"negative-ke", edit(func(s, _ map[string]interface{}) { s["ke"] = -1 }), true},
		{"huge-kc", edit(func(s, _ map[string]interface{}) { s["kc"] = 100000 }), true},
		{"negative-demand", edit(func(_, d map[string]interface{}) { d["demand"] = -5 }), true},
		{"self-loop-demand", edit(func(_, d map[string]interface{}) { d["dst"] = d["src"] }), true},
	}
	for _, tc := range cases {
		if err := os.WriteFile(snap, tc.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg2 := cfg
		cfg2.FirstSolveDelay = time.Hour
		c, err := New(cfg2)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("%s: New accepted the snapshot", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: New errored: %v", tc.name, err)
		}
		p := c.GetPlan()
		if p.Restored || p.Seq != 0 {
			t.Fatalf("%s: restored a broken snapshot: %+v", tc.name, p.Meta())
		}
	}
}

// TestSnapshotRestoreRejectedByCertifier: a snapshot that parses fine but
// whose plan violates its own claimed guarantee (a link capacity shrunk
// out from under it) must fail boot certification and serve the unsolved
// placeholder instead of restored=true.
func TestSnapshotRestoreRejectedByCertifier(t *testing.T) {
	cfg, snap, blob := writeHealthySnapshot(t)

	// Corrupt semantically: multiply every recorded rate and allocation so
	// the plan overloads links that certify fine at the original values.
	var parsed map[string]interface{}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}
	state := parsed["state"].(map[string]interface{})
	for _, fi := range state["flows"].([]interface{}) {
		fm := fi.(map[string]interface{})
		fm["rate"] = fm["rate"].(float64) * 1000
		for _, ti := range fm["tunnels"].([]interface{}) {
			tm := ti.(map[string]interface{})
			tm["alloc"] = tm["alloc"].(float64) * 1000
		}
	}
	bad, err := json.Marshal(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	// The poisoned snapshot parses and names a valid plan: only the
	// certifier can refuse it.
	if _, err := loadSnapshot(snap); err != nil {
		t.Fatalf("precondition: poisoned snapshot should parse: %v", err)
	}

	cfg2 := cfg
	cfg2.FirstSolveDelay = time.Hour
	c, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	p := c.GetPlan()
	if p.Restored {
		t.Fatalf("certifier served an overloading snapshot as restored: %+v", p.Meta())
	}
	if p.Seq != 0 || p.Degraded != "unsolved" {
		t.Fatalf("rejected snapshot should leave the unsolved placeholder, got %+v", p.Meta())
	}
	s := c.Stats()
	if s.CertRuns != 1 || s.CertFailures != 1 {
		t.Fatalf("boot certification: %d runs %d failures, want 1/1", s.CertRuns, s.CertFailures)
	}
	if s.RestoredAtBoot {
		t.Fatal("stats claim a restore after certification rejected it")
	}
}

// TestCertifyProbesFromInstalledPlan: a recompute's certification takes the
// installed plan's worst case as its probe while the protection and the
// down sets are those that plan was certified at, and not right after a
// link goes down.
func TestCertifyProbesFromInstalledPlan(t *testing.T) {
	c, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	probed := obs.Default().Counter("check.probed")
	p := waitSeq(t, c, 1)
	step := func(want int64, apply func()) {
		t.Helper()
		before := probed.Value()
		apply()
		p = waitSeq(t, c, p.Seq+1)
		if p.Degraded != "" || p.Cert == nil {
			t.Fatalf("seq %d: degraded %q, certificate %v", p.Seq, p.Degraded, p.Cert)
		}
		if got := probed.Value() - before; got != want {
			t.Fatalf("seq %d: %d certifications probed, want %d", p.Seq, got, want)
		}
	}
	step(1, c.Kick)
	down := false
	step(0, func() {
		if err := c.Apply(&wire.Update{Op: wire.UpdateLink, Src: "s2", Dst: "s4", Up: &down}); err != nil {
			t.Fatal(err)
		}
	})
	step(1, c.Kick)
}
