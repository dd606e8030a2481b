package wire

import (
	"fmt"
	"math"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// ResolveSwitch resolves a switch name against a topology.
func ResolveSwitch(net *topology.Network, name string) (topology.SwitchID, error) {
	sw, ok := net.SwitchByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown switch %q", name)
	}
	return sw, nil
}

// ResolveFlow resolves a flow from its endpoint switch names. Unknown
// switches and self-loops error.
func ResolveFlow(net *topology.Network, src, dst string) (tunnel.Flow, error) {
	s, err := ResolveSwitch(net, src)
	if err != nil {
		return tunnel.Flow{}, err
	}
	d, err := ResolveSwitch(net, dst)
	if err != nil {
		return tunnel.Flow{}, err
	}
	if s == d {
		return tunnel.Flow{}, fmt.Errorf("src == dst (%q)", src)
	}
	return tunnel.Flow{Src: s, Dst: d}, nil
}

// ResolveDemand resolves one demand entry: its flow (ResolveFlow) and its
// value (checkRate).
func ResolveDemand(net *topology.Network, d DemandEntry) (tunnel.Flow, error) {
	if err := checkRate("demand", d.Demand); err != nil {
		return tunnel.Flow{}, err
	}
	return ResolveFlow(net, d.Src, d.Dst)
}

// AddDemands resolves entries (ResolveDemand) into m, adding the values of
// entries for the same flow together. On an error m may hold the entries
// before the bad one.
func AddDemands(net *topology.Network, m demand.Matrix, entries []DemandEntry) error {
	for i, d := range entries {
		f, err := ResolveDemand(net, d)
		if err != nil {
			return fmt.Errorf("wire: demand %d: %w", i, err)
		}
		m[f] += d.Demand
	}
	return nil
}

// checkRate is the one check a rate read from outside passes — a demand
// entry's value in a file, an update frame or a snapshot, and a state
// file's rates, demands and tunnel splits: finite and not negative.
func checkRate(what string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s is %g, want finite and not negative", what, v)
	}
	return nil
}

// MarkLink resolves a physical link from its endpoint switch names, given
// in either direction, and marks both of its directions down in dl (or, with
// down false, up: deleted from dl).
func MarkLink(net *topology.Network, dl map[topology.LinkID]bool, src, dst string, down bool) error {
	f, err := ResolveFlow(net, src, dst)
	if err != nil {
		return err
	}
	l := net.FindLink(f.Src, f.Dst)
	if l == topology.None {
		l = net.FindLink(f.Dst, f.Src)
	}
	if l == topology.None {
		return fmt.Errorf("no link %s-%s", src, dst)
	}
	for _, id := range [2]topology.LinkID{l, net.Links[l].Twin} {
		switch {
		case id == topology.None:
		case down:
			dl[id] = true
		default:
			delete(dl, id)
		}
	}
	return nil
}

// checkLevel is the range check every protection level read from outside
// passes, in an update frame, a trace record or a snapshot.
func checkLevel(name string, v int) error {
	if v < 0 || v > maxProtection {
		return fmt.Errorf("%s = %d out of range [0,%d]", name, v, maxProtection)
	}
	return nil
}
