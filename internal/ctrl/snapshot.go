package ctrl

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

// snapshotVersion guards the on-disk schema; a mismatch is refused rather
// than misread.
const snapshotVersion = 1

// snapshotFile is the daemon's crash-recovery record: the installed plan in
// wire form plus the desired state needed to resume the control loop
// (demands, down sets, protection). Switches and links are named, so a
// snapshot survives a restart with a re-read topology file.
type snapshotFile struct {
	Version  int       `json:"version"`
	SavedAt  time.Time `json:"saved_at"`
	Seq      int64     `json:"seq"`
	Degraded string    `json:"degraded,omitempty"`

	Kc int `json:"kc"`
	Ke int `json:"ke"`
	Kv int `json:"kv"`

	Demands      []wire.DemandEntry `json:"demands"`
	DownLinks    [][2]string        `json:"down_links,omitempty"`
	DownSwitches []string           `json:"down_switches,omitempty"`

	State wire.StateFile `json:"state"`
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
// so no locking. Unknown names error: a snapshot from a different topology
// must not half-apply.
func (c *Controller) adoptSnapshot(snap *snapshotFile) error {
	dem := demand.Matrix{}
	for i, d := range snap.Demands {
		src, ok1 := c.net.SwitchByName(d.Src)
		dst, ok2 := c.net.SwitchByName(d.Dst)
		if !ok1 || !ok2 {
			return fmt.Errorf("snapshot demand %d: unknown switch %q/%q", i, d.Src, d.Dst)
		}
		dem[tunnel.Flow{Src: src, Dst: dst}] = d.Demand
	}
	for i, pair := range snap.DownLinks {
		src, ok1 := c.net.SwitchByName(pair[0])
		dst, ok2 := c.net.SwitchByName(pair[1])
		if !ok1 || !ok2 {
			return fmt.Errorf("snapshot down link %d: unknown switch %q/%q", i, pair[0], pair[1])
		}
		l := c.net.FindLink(src, dst)
		if l == topology.None {
			return fmt.Errorf("snapshot down link %d: no link %s-%s", i, pair[0], pair[1])
		}
		c.downLinks[l] = true
		if tw := c.net.Links[l].Twin; tw != topology.None {
			c.downLinks[tw] = true
		}
	}
	for i, name := range snap.DownSwitches {
		sw, ok := c.net.SwitchByName(name)
		if !ok {
			return fmt.Errorf("snapshot down switch %d: unknown switch %q", i, name)
		}
		c.downSwitches[sw] = true
	}
	if len(dem) > 0 {
		c.demands = dem
	}
	c.prot.Kc, c.prot.Ke, c.prot.Kv = snap.Kc, snap.Ke, snap.Kv
	return nil
}

// writeSnapshot persists the installed plan and desired state, atomically
// (write temp + rename). Rate-limited to Config.SnapshotEvery unless
// force (the final snapshot on Stop).
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
	c.mu.Lock()
	snap := snapshotFile{
		Version:  snapshotVersion,
		SavedAt:  now,
		Seq:      p.Seq,
		Degraded: p.Degraded,
		Kc:       c.prot.Kc,
		Ke:       c.prot.Ke,
		Kv:       c.prot.Kv,
		State:    p.File,
	}
	for f, d := range c.demands {
		snap.Demands = append(snap.Demands, wire.DemandEntry{
			Src:    c.net.Switches[f.Src].Name,
			Dst:    c.net.Switches[f.Dst].Name,
			Demand: d,
		})
	}
	for l, down := range c.downLinks {
		if !down {
			continue
		}
		lk := c.net.Links[l]
		// Record each physical link once (the twin is re-derived on load).
		if c.net.Physical(l) != l {
			continue
		}
		snap.DownLinks = append(snap.DownLinks, [2]string{
			c.net.Switches[lk.Src].Name, c.net.Switches[lk.Dst].Name,
		})
	}
	for sw, down := range c.downSwitches {
		if down {
			snap.DownSwitches = append(snap.DownSwitches, c.net.Switches[sw].Name)
		}
	}
	c.mu.Unlock()
	sort.Slice(snap.Demands, func(i, j int) bool {
		if snap.Demands[i].Src != snap.Demands[j].Src {
			return snap.Demands[i].Src < snap.Demands[j].Src
		}
		return snap.Demands[i].Dst < snap.Demands[j].Dst
	})
	sort.Slice(snap.DownLinks, func(i, j int) bool {
		if snap.DownLinks[i][0] != snap.DownLinks[j][0] {
			return snap.DownLinks[i][0] < snap.DownLinks[j][0]
		}
		return snap.DownLinks[i][1] < snap.DownLinks[j][1]
	})
	sort.Strings(snap.DownSwitches)

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
	c.lastSnapshot = now
	c.stats.snapshotWrites.Add(1)
	obsSnapshotWrites.Inc()
}
