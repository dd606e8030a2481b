package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// TraceRecord is one installed plan in an NDJSON interval trace — the
// offline-replayable history ffcd (per install) and ffcsim (per interval)
// can emit, and cmd/ffccheck certifies record by record. Everything is
// keyed by switch names so a trace outlives process-local IDs.
type TraceRecord struct {
	// Seq orders installs; ffcsim uses the 1-based interval number.
	Seq int64 `json:"seq"`
	// Time stamps the install (zero in simulated traces).
	Time time.Time `json:"time,omitzero"`
	// Class labels the priority class in multi-priority sim traces;
	// replay chains prev-state per class.
	Class string `json:"class,omitempty"`

	// Kc/Ke/Kv is the protection level the plan was computed for.
	Kc int `json:"kc"`
	Ke int `json:"ke"`
	Kv int `json:"kv"`

	// Degraded carries the degradation reason when the plan is a
	// last-good fallback rather than a fresh solve; degraded plans only
	// promise congestion-freedom under the faults they degraded around,
	// so replay certifies them at zero protection.
	Degraded string `json:"degraded,omitempty"`
	// Restored marks a plan served from a boot snapshot.
	Restored bool `json:"restored,omitempty"`

	// DownLinks / DownSwitches are the elements known failed at install
	// (physical links as name pairs).
	DownLinks    [][2]string `json:"down_links,omitempty"`
	DownSwitches []string    `json:"down_switches,omitempty"`

	// State is the installed configuration.
	State StateFile `json:"state"`
}

// WriteTraceRecord appends one NDJSON line.
func WriteTraceRecord(w io.Writer, rec *TraceRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wire: encoding trace record: %w", err)
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// ParseTraceRecord decodes one NDJSON line.
func ParseTraceRecord(line []byte) (*TraceRecord, error) {
	var rec TraceRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("wire: parsing trace record: %w", err)
	}
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return &rec, nil
}

// Validate checks the record's protection levels against the range an
// update frame may set.
func (r *TraceRecord) Validate() error {
	if err := errors.Join(checkLevel("kc", r.Kc), checkLevel("ke", r.Ke), checkLevel("kv", r.Kv)); err != nil {
		return fmt.Errorf("wire: trace record seq=%d: protection %w", r.Seq, err)
	}
	return nil
}

// CertifiedProt is the protection the record's plan certifies at: the
// recorded level, or zero for a degraded plan. A degraded plan is the
// last-good plan rescaled around the faults; it promises congestion-freedom
// under them, nothing more (current recorders already write zero protection
// for it; older traces and snapshots carry the requested level).
func (r *TraceRecord) CertifiedProt() core.Protection {
	if r.Degraded != "" {
		return core.None
	}
	return core.Protection{Kc: r.Kc, Ke: r.Ke, Kv: r.Kv}
}

// ResolveDownSets maps a record's named down elements onto a topology,
// failing both directions of each physical link (MarkLink). Unknown names
// error.
func ResolveDownSets(net *topology.Network, downLinks [][2]string, downSwitches []string) (map[topology.LinkID]bool, map[topology.SwitchID]bool, error) {
	dl := map[topology.LinkID]bool{}
	for i, pair := range downLinks {
		if err := MarkLink(net, dl, pair[0], pair[1], true); err != nil {
			return nil, nil, fmt.Errorf("wire: down link %d: %w", i, err)
		}
	}
	ds := map[topology.SwitchID]bool{}
	for i, name := range downSwitches {
		sw, err := ResolveSwitch(net, name)
		if err != nil {
			return nil, nil, fmt.Errorf("wire: down switch %d: %w", i, err)
		}
		ds[sw] = true
	}
	return dl, ds, nil
}

// NamedDownSets is ResolveDownSets' inverse: it renders down sets as
// switch-name pairs / names for a trace record, one sorted entry per
// physical link.
func NamedDownSets(net *topology.Network, dl map[topology.LinkID]bool, ds map[topology.SwitchID]bool) ([][2]string, []string) {
	var links [][2]string
	for l, down := range dl {
		if !down {
			continue
		}
		lk := net.Links[l]
		if net.Physical(l) != l {
			continue
		}
		links = append(links, [2]string{net.Switches[lk.Src].Name, net.Switches[lk.Dst].Name})
	}
	var sws []string
	for sw, down := range ds {
		if down {
			sws = append(sws, net.Switches[sw].Name)
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i][0] != links[j][0] {
			return links[i][0] < links[j][0]
		}
		return links[i][1] < links[j][1]
	})
	sort.Strings(sws)
	return links, sws
}

// TunnelSetFromState rebuilds a tunnel set from the paths recorded in a
// state file, so a plan can be checked offline exactly as written — no
// layout flags to match against the producing process. Paths must name
// adjacent switches connected by links of net; duplicate flows error
// (ResolveState would mis-assign their allocations).
func TunnelSetFromState(net *topology.Network, sf *StateFile) (*tunnel.Set, error) {
	flows, err := resolveFlows(net, sf)
	if err != nil {
		return nil, err
	}
	set := tunnel.NewSet(net)
	for i, f := range sf.Flows {
		fl := flows[i]
		var ts []*tunnel.Tunnel
		for j, ta := range f.Tunnels {
			t, err := tunnelFromPath(net, ta.Path)
			if err != nil {
				return nil, fmt.Errorf("wire: state flow %d tunnel %d: %w", i, j, err)
			}
			if t.Switches[0] != fl.Src || t.Switches[len(t.Switches)-1] != fl.Dst {
				return nil, fmt.Errorf("wire: state flow %d tunnel %d: path endpoints %s..%s don't match the flow",
					i, j, ta.Path[0], ta.Path[len(ta.Path)-1])
			}
			ts = append(ts, t)
		}
		set.Add(fl, ts...)
	}
	return set, nil
}

// tunnelFromPath resolves a named switch sequence into a Tunnel.
func tunnelFromPath(net *topology.Network, path []string) (*tunnel.Tunnel, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("path has %d hops", len(path))
	}
	switches := make([]topology.SwitchID, len(path))
	for i, name := range path {
		sw, err := ResolveSwitch(net, name)
		if err != nil {
			return nil, err
		}
		switches[i] = sw
	}
	links := make([]topology.LinkID, len(path)-1)
	for i := 0; i+1 < len(switches); i++ {
		l := net.FindLink(switches[i], switches[i+1])
		if l == topology.None {
			return nil, fmt.Errorf("no link %s>%s", path[i], path[i+1])
		}
		links[i] = l
	}
	return &tunnel.Tunnel{Links: links, Switches: switches}, nil
}
