package ctrl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ffc/internal/check"
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

// TestCertifyInstalls: with Certify configured, every recompute's install
// is certified, none fail, and the trace records replay cleanly.
func TestCertifyInstalls(t *testing.T) {
	cfg := testConfig(t)
	cfg.Certify = &check.Params{}
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
	c.Stop() // drains the certifier

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
		set, err := wire.TunnelSetFromState(cfg.Net, &rec.State)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		st, err := wire.ResolveState(cfg.Net, set, &rec.State)
		if err != nil {
			t.Fatalf("trace line %d: %v", i, err)
		}
		cert, err := check.Certify(cfg.Net, set, st, st, check.Params{
			Prot: cfg.Prot,
		})
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
	cfg2.Certify = &check.Params{}
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

// TestSnapshotRestoreCorrupted: garbage, a wrong version, and a snapshot
// naming unknown switches all refuse to restore.
func TestSnapshotRestoreCorrupted(t *testing.T) {
	cfg, snap, blob := writeHealthySnapshot(t)

	var parsed map[string]interface{}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatal(err)
	}
	wrongVersion, _ := json.Marshal(map[string]interface{}{"version": 99})

	cases := []struct {
		name    string
		blob    []byte
		wantErr bool // New must error (half-applied desired state is worse than no restore)
	}{
		{"garbage", []byte("{not json"), false},
		{"empty", nil, false},
		{"wrong-version", wrongVersion, false},
		{"unknown-switch", []byte(strings.Replace(string(blob), `"s2"`, `"zz"`, 1)), true},
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
				t.Fatalf("%s: New accepted a snapshot naming unknown switches", tc.name)
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

	// Without certification the poisoned snapshot is served as restored —
	// that is the hole the certifier closes.
	cfgNoCert := cfg
	cfgNoCert.FirstSolveDelay = time.Hour
	cNo, err := New(cfgNoCert)
	if err != nil {
		t.Fatal(err)
	}
	if p := cNo.GetPlan(); !p.Restored {
		t.Fatalf("precondition: poisoned snapshot should parse and restore without certification, got %+v", p.Meta())
	}

	cfg2 := cfg
	cfg2.Certify = &check.Params{}
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
