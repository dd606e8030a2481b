package ctrl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/wire"
)

// snapshotVersion guards the on-disk schema; a mismatch is refused rather
// than misread.
const snapshotVersion = 1

// snapshotFile is the daemon's crash-recovery record: the installed plan as
// a trace record plus the demands the control loop resumes from. The
// record's protection and down sets are the desired ones (the plan's own,
// unless an update arrived after its install; for a degraded plan, the
// requested level, which the record certifies at zero). Switches and links
// are named, so a snapshot survives a restart with a re-read topology file.
type snapshotFile struct {
	Version int                `json:"version"`
	SavedAt time.Time          `json:"saved_at"`
	Demands []wire.DemandEntry `json:"demands"`
	wire.TraceRecord
}

// loadSnapshot reads and decodes a snapshot file.
func loadSnapshot(path string) (*snapshotFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshotFile
	if err := json.Unmarshal(blob, &snap); err != nil {
		return nil, fmt.Errorf("ctrl: parsing snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("ctrl: snapshot %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	return &snap, nil
}

// adoptSnapshot folds the snapshot's desired state (demands, down sets,
// protection) into the controller. Called from New before the loop starts,
// so no locking. Every value passes the checks an update frame passes, and
// names resolve as wire resolves them: a snapshot from a different
// topology, or a corrupted one, must not half-apply.
func (c *Controller) adoptSnapshot(snap *snapshotFile) error {
	if err := snap.Validate(); err != nil {
		return err
	}
	dem := demand.Matrix{}
	for i, d := range snap.Demands {
		f, err := wire.ResolveDemand(c.net, d)
		if err != nil {
			return fmt.Errorf("snapshot demand %d: %w", i, err)
		}
		dem[f] = d.Demand
	}
	dl, ds, err := wire.ResolveDownSets(c.net, snap.DownLinks, snap.DownSwitches)
	if err != nil {
		return err
	}
	if len(dem) > 0 {
		c.demands = dem
	}
	c.downLinks, c.downSwitches = dl, ds
	c.prot = core.Protection{Kc: snap.Kc, Ke: snap.Ke, Kv: snap.Kv}
	return nil
}

// writeSnapshot persists the installed plan and desired state, atomically
// (write temp + rename). Rate-limited to Config.SnapshotEvery unless
// force (the final snapshot on Stop): the limit counts from the last
// attempt, so a failing write is retried, and logged, once per period
// rather than on every install.
func (c *Controller) writeSnapshot(force bool) {
	if c.cfg.SnapshotPath == "" {
		return
	}
	now := time.Now()
	if !force && now.Sub(c.lastSnapshot) < c.cfg.SnapshotEvery {
		return
	}
	p := c.plan.Load()
	if p == nil || p.Seq == 0 {
		return // nothing solved or restored yet; keep any older snapshot
	}
	c.lastSnapshot = now
	c.mu.Lock()
	snap := snapshotFile{
		Version:     snapshotVersion,
		SavedAt:     now,
		Demands:     wire.EncodeDemands(c.net, c.demands).Demands,
		TraceRecord: c.record(p, c.prot, c.downLinks, c.downSwitches),
	}
	c.mu.Unlock()

	blob, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		c.cfg.Logf("ctrl: encoding snapshot: %v", err)
		return
	}
	tmp := c.cfg.SnapshotPath + ".tmp"
	if err := os.MkdirAll(filepath.Dir(c.cfg.SnapshotPath), 0o755); err != nil {
		c.cfg.Logf("ctrl: snapshot dir: %v", err)
		return
	}
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		c.cfg.Logf("ctrl: writing snapshot: %v", err)
		return
	}
	if err := os.Rename(tmp, c.cfg.SnapshotPath); err != nil {
		c.cfg.Logf("ctrl: installing snapshot: %v", err)
		return
	}
	c.stats.snapshotWrites.Add(1)
	obsSnapshotWrites.Inc()
}
