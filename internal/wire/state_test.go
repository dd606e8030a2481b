package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// solveExample computes a small real configuration to round-trip.
func solveExample(t *testing.T) (*topology.Network, *tunnel.Set, demand.Matrix, *core.State) {
	t.Helper()
	net := topology.Example4()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s4, _ := net.SwitchByName("s4")
	flows := []tunnel.Flow{{Src: s2, Dst: s4}, {Src: s1, Dst: s4}}
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 2})
	solver := core.NewSolver(net, set, core.Options{})
	demands := demand.Matrix{flows[0]: 10, flows[1]: 4}
	st, _, err := solver.Solve(core.Input{Demands: demands})
	if err != nil {
		t.Fatal(err)
	}
	return net, set, demands, st
}

// TestParseStateRoundTrip checks encode → parse → encode is byte-stable:
// ParseState is the exact inverse of EncodeState on files EncodeState
// produced.
func TestParseStateRoundTrip(t *testing.T) {
	net, set, demands, st := solveExample(t)
	first, err := json.Marshal(EncodeState(net, set, demands, st))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseState(net, set, first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(EncodeState(net, set, demands, parsed))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("round trip not byte-identical:\n first: %s\nsecond: %s", first, second)
	}
	if parsed.TotalRate() != st.TotalRate() {
		t.Fatalf("total rate changed: %v vs %v", parsed.TotalRate(), st.TotalRate())
	}
}

// TestParseStateUnknownPathTolerated: a tunnel whose path no longer exists
// in the freshly laid-out set loses its allocation but does not error (the
// topology may legitimately have changed between runs).
func TestParseStateUnknownPathTolerated(t *testing.T) {
	net, set, demands, st := solveExample(t)
	sf := EncodeState(net, set, demands, st)
	sf.Flows[0].Tunnels[0].Path = []string{"s2", "s3", "s1", "s4"} // not a laid-out tunnel
	blob, _ := json.Marshal(sf)
	parsed, err := ParseState(net, set, blob)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TotalRate() != st.TotalRate() {
		t.Fatalf("rates must survive: %v vs %v", parsed.TotalRate(), st.TotalRate())
	}
}

func TestParseStateErrors(t *testing.T) {
	net, set, demands, st := solveExample(t)
	good := EncodeState(net, set, demands, st)
	mutate := func(fn func(sf *StateFile)) []byte {
		var sf StateFile
		blob, _ := json.Marshal(good)
		if err := json.Unmarshal(blob, &sf); err != nil {
			t.Fatal(err)
		}
		fn(&sf)
		out, _ := json.Marshal(sf)
		return out
	}
	cases := []struct {
		name string
		blob []byte
		want string
	}{
		{"garbage", []byte(`{"flows": 3}`), "parsing state"},
		{"unknown-switch", mutate(func(sf *StateFile) { sf.Flows[0].Src = "nope" }), "unknown switch"},
		{"self-flow", mutate(func(sf *StateFile) { sf.Flows[0].Dst = sf.Flows[0].Src }), "src == dst"},
		{"negative-rate", mutate(func(sf *StateFile) { sf.Flows[0].Rate = -1 }), "rate is -1"},
		{"negative-alloc", mutate(func(sf *StateFile) { sf.Flows[0].Tunnels[0].Alloc = -2 }), "tunnel alloc is -2"},
		{"short-path", mutate(func(sf *StateFile) { sf.Flows[0].Tunnels[0].Path = []string{"s2"} }), "path has 1 hops"},
		{"duplicate-flow", mutate(func(sf *StateFile) { sf.Flows = append(sf.Flows, sf.Flows[0]) }), "duplicate flow"},
	}
	for _, tc := range cases {
		if _, err := ParseState(net, set, tc.blob); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// encodeStateByAppend is EncodeState as it was before its slices were sized
// up front: every path, tunnel list and flow list grown by append.
func encodeStateByAppend(net *topology.Network, tun *tunnel.Set, demands demand.Matrix, st *core.State) StateFile {
	out := StateFile{TotalDemand: demands.Total(), TotalRate: st.TotalRate()}
	for _, fl := range demands.Flows() {
		sf := StateFlow{
			Src: net.Switches[fl.Src].Name, Dst: net.Switches[fl.Dst].Name,
			Demand: demands[fl], Rate: st.Rate[fl],
		}
		alloc := st.Alloc[fl]
		weights := st.Weights(fl)
		for _, t := range tun.Tunnels(fl) {
			ta := TunnelAlloc{}
			for _, sw := range t.Switches {
				ta.Path = append(ta.Path, net.Switches[sw].Name)
			}
			if t.Index < len(alloc) {
				ta.Alloc = alloc[t.Index]
				ta.Weight = weights[t.Index]
			}
			sf.Tunnels = append(sf.Tunnels, ta)
		}
		out.Flows = append(out.Flows, sf)
	}
	return out
}

// TestEncodeStateMatchesAppendEncoding: the presized encoding marshals to
// the same bytes as the append-grown one — nil lists stay null — and its
// carved slices do not alias: appending to one flow's tunnels or one
// tunnel's path leaves the next untouched.
func TestEncodeStateMatchesAppendEncoding(t *testing.T) {
	net, set, demands, st := solveExample(t)
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	untunnelled := demand.Matrix{tunnel.Flow{Src: s3, Dst: s4}: 2}
	for f, d := range demands {
		untunnelled[f] = d
	}
	for _, dm := range []demand.Matrix{demands, untunnelled, {}} {
		got, err := json.Marshal(EncodeState(net, set, dm, st))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(encodeStateByAppend(net, set, dm, st))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%d flows: encoding differs:\n got %s\nwant %s", len(dm), got, want)
		}
	}
	sf := EncodeState(net, set, demands, st)
	if len(sf.Flows) < 2 || len(sf.Flows[0].Tunnels) < 2 {
		t.Fatalf("fixture too small: %+v", sf)
	}
	next, hop := sf.Flows[1].Tunnels[0], sf.Flows[0].Tunnels[1].Path[0]
	_ = append(sf.Flows[0].Tunnels, TunnelAlloc{Path: []string{"x"}})
	_ = append(sf.Flows[0].Tunnels[0].Path, "x")
	if got := sf.Flows[1].Tunnels[0]; got.Path[0] != next.Path[0] || got.Alloc != next.Alloc {
		t.Fatalf("appending to flow 0's tunnels changed flow 1's: %+v", got)
	}
	if got := sf.Flows[0].Tunnels[1].Path[0]; got != hop {
		t.Fatalf("appending to tunnel 0's path changed tunnel 1's first hop to %q", got)
	}
}
