package ctrl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ffc/internal/core"
)

// logLines collects a controller's log lines (the recompute goroutine
// writes them while the test reads).
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) Logf(format string, args ...interface{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// TestSnapshotRestoreV1File: testdata/v1.snap is a version-1 snapshot as
// written before the snapshot became a trace record (key order and
// entry order differ from today's writer): testConfig's controller after
// the s2-s4 link went down and kc rose to 1. It must restore unchanged.
func TestSnapshotRestoreV1File(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	cfg.SnapshotPath = filepath.Join(t.TempDir(), "ffcd.snap")
	if err := os.WriteFile(cfg.SnapshotPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.FirstSolveDelay = time.Hour
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := c.GetPlan()
	if !p.Restored || p.Seq != 3 || p.Degraded != "" {
		t.Fatalf("restored plan %+v, want seq 3, restored, not degraded", p.Meta())
	}
	if p.File.TotalRate != 13 {
		t.Fatalf("restored total rate %g, want 13", p.File.TotalRate)
	}
	want := core.Protection{Kc: 1, Ke: 1}
	if p.Prot != want || c.prot != want {
		t.Fatalf("restored protection %v (desired %v), want %v", p.Prot, c.prot, want)
	}
	s2, _ := c.net.SwitchByName("s2")
	s4, _ := c.net.SwitchByName("s4")
	l := c.net.FindLink(s2, s4)
	if len(c.downLinks) != 2 || !c.downLinks[l] || !c.downLinks[c.net.Links[l].Twin] {
		t.Fatalf("restored down links %v, want both directions of s2-s4", c.downLinks)
	}
	if err := checkPlan(p); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWriteFailureKeepsServing: when the snapshot's temporary path
// cannot be written (here it is a directory, which fails for root too), the
// daemon logs the failure, counts no write, leaves the previous snapshot
// intact and keeps installing plans.
func TestSnapshotWriteFailureKeepsServing(t *testing.T) {
	cfg, snap, blob := writeHealthySnapshot(t)
	if err := os.Mkdir(snap+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	logs := &logLines{}
	cfg.Logf = logs.Logf
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	p := waitSeq(t, c, c.GetPlan().Seq+1)
	for i := 0; i < 5; i++ { // six installs inside the default SnapshotEvery
		c.Kick()
		p = waitSeq(t, c, p.Seq+1)
	}
	if err := checkPlan(p); err != nil {
		t.Fatal(err)
	}
	c.Stop() // the final snapshot fails too
	// The failed attempt counts toward the rate limit: the first install
	// tries and fails, the next five fall inside SnapshotEvery, and Stop's
	// forced write fails again.
	if n := logs.count("ctrl: writing snapshot:"); n != 2 {
		t.Fatalf("%d snapshot write failures logged, want 2 (the first install and Stop)", n)
	}
	if s := c.Stats(); s.SnapshotWrites != 0 {
		t.Fatalf("snapshot_writes = %d after failed writes, want 0", s.SnapshotWrites)
	}
	after, err := os.ReadFile(snap)
	if err != nil || !bytes.Equal(after, blob) {
		t.Fatalf("previous snapshot changed by failed writes (err %v)", err)
	}
}

// TestSnapshotLeftoverTmp: a garbage temporary file, as a write killed with
// kill -9 leaves behind, neither affects the next restore nor blocks the
// next write.
func TestSnapshotLeftoverTmp(t *testing.T) {
	cfg, snap, _ := writeHealthySnapshot(t)
	if err := os.WriteFile(snap+".tmp", []byte(`{"version":1,"seq":99,"sta`), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := c.GetPlan(); !p.Restored || p.Seq != before.Seq {
		t.Fatalf("restored %+v, want seq %d from the snapshot, not the leftover", p.Meta(), before.Seq)
	}
	c.Start()
	p := waitSeq(t, c, before.Seq+1)
	c.Stop()
	if s := c.Stats(); s.SnapshotWrites < 1 {
		t.Fatalf("snapshot_writes = %d, want the write after the leftover to succeed", s.SnapshotWrites)
	}
	if _, err := os.Stat(snap + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("leftover temporary file survived a successful write: %v", err)
	}
	after, err := loadSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if after.Seq < p.Seq {
		t.Fatalf("snapshot seq %d after writing, want at least %d", after.Seq, p.Seq)
	}
}
