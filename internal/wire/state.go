package wire

import (
	"encoding/json"
	"errors"
	"fmt"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// ParseState is the inverse of EncodeState: it decodes a state file and
// resolves it against a topology and tunnel set. It validates everything an
// attacker-controlled (or merely stale) file could get wrong — unknown
// switch names, self-flows, non-finite or negative rates and allocations,
// duplicate flows — and tolerates tunnels whose paths no longer exist in
// the freshly laid-out set (their allocation is dropped, matching what the
// controller can actually install). Both cmd/ffcte's -prev and the ffcd
// daemon's snapshot restore go through here.
func ParseState(net *topology.Network, set *tunnel.Set, data []byte) (*core.State, error) {
	var sf StateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("wire: parsing state: %w", err)
	}
	return ResolveState(net, set, &sf)
}

// ResolveState resolves an already-decoded StateFile (see ParseState).
func ResolveState(net *topology.Network, set *tunnel.Set, sf *StateFile) (*core.State, error) {
	flows, err := resolveFlows(net, sf)
	if err != nil {
		return nil, err
	}
	st := core.NewState()
	for i, f := range sf.Flows {
		fl := flows[i]
		if err := errors.Join(checkRate("rate", f.Rate), checkRate("demand", f.Demand)); err != nil {
			return nil, fmt.Errorf("wire: state flow %d: %w", i, err)
		}
		st.Rate[fl] = f.Rate
		ts := set.Tunnels(fl)
		alloc := make([]float64, len(ts))
		for j, ta := range f.Tunnels {
			if err := errors.Join(checkRate("tunnel alloc", ta.Alloc), checkRate("tunnel weight", ta.Weight)); err != nil {
				return nil, fmt.Errorf("wire: state flow %d: %w", i, err)
			}
			if len(ta.Path) < 2 {
				return nil, fmt.Errorf("wire: state flow %d tunnel %d: path has %d hops", i, j, len(ta.Path))
			}
			for _, t := range ts {
				if samePathNames(net, t, ta.Path) {
					alloc[t.Index] = ta.Alloc
				}
			}
		}
		st.Alloc[fl] = alloc
	}
	return st, nil
}

// resolveFlows resolves a state file's flows (ResolveFlow). A duplicate
// flow errors: its allocations would be mis-assigned.
func resolveFlows(net *topology.Network, sf *StateFile) ([]tunnel.Flow, error) {
	flows := make([]tunnel.Flow, len(sf.Flows))
	seen := make(map[tunnel.Flow]bool, len(sf.Flows))
	for i, f := range sf.Flows {
		fl, err := ResolveFlow(net, f.Src, f.Dst)
		if err != nil {
			return nil, fmt.Errorf("wire: state flow %d: %w", i, err)
		}
		if seen[fl] {
			return nil, fmt.Errorf("wire: state flow %d: duplicate flow %s->%s", i, f.Src, f.Dst)
		}
		seen[fl] = true
		flows[i] = fl
	}
	return flows, nil
}

// samePathNames reports whether a laid-out tunnel follows exactly the named
// switch sequence.
func samePathNames(net *topology.Network, t *tunnel.Tunnel, names []string) bool {
	if len(t.Switches) != len(names) {
		return false
	}
	for i, sw := range t.Switches {
		if net.Switches[sw].Name != names[i] {
			return false
		}
	}
	return true
}
