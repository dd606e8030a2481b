package wire

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

func exampleSetAndState(t *testing.T) (*topology.Network, *tunnel.Set, demand.Matrix, *core.State) {
	t.Helper()
	net := topology.Example4()
	var flows []tunnel.Flow
	for src := range net.Switches {
		for dst := range net.Switches {
			if src != dst {
				flows = append(flows, tunnel.Flow{Src: topology.SwitchID(src), Dst: topology.SwitchID(dst)})
			}
		}
	}
	set := tunnel.Layout(net, flows, tunnel.LayoutConfig{TunnelsPerFlow: 3, P: 1, Q: 3})
	st := core.NewState()
	demands := demand.Matrix{}
	for i, f := range set.All() {
		ts := set.Tunnels(f)
		alloc := make([]float64, len(ts))
		var sum float64
		for j := range alloc {
			alloc[j] = float64((i+j)%5) * 0.5
			sum += alloc[j]
		}
		st.Alloc[f] = alloc
		st.Rate[f] = sum
		demands[f] = sum + 1
	}
	return net, set, demands, st
}

func TestTraceRecordRoundTrip(t *testing.T) {
	net, set, demands, st := exampleSetAndState(t)
	sf := EncodeState(net, set, demands, st)
	rec := &TraceRecord{
		Seq: 3, Class: "gold", Kc: 1, Ke: 2, Kv: 1,
		Degraded:     "solver timeout",
		DownLinks:    [][2]string{{"s1", "s2"}},
		DownSwitches: []string{"s3"},
		State:        sf,
	}
	var buf bytes.Buffer
	if err := WriteTraceRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceRecord(&buf, &TraceRecord{Seq: 4, State: sf}); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("no first line")
	}
	got, err := ParseTraceRecord(sc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 3 || got.Class != "gold" || got.Kc != 1 || got.Ke != 2 || got.Kv != 1 ||
		got.Degraded != "solver timeout" || len(got.DownLinks) != 1 || len(got.DownSwitches) != 1 {
		t.Fatalf("round trip mangled record: %+v", got)
	}

	// The recorded paths alone must rebuild a set on which the state
	// resolves identically to the original.
	set2, err := TunnelSetFromState(net, &got.State)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := ResolveState(net, set2, &got.State)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range set.All() {
		if st2.Rate[f] != st.Rate[f] {
			t.Fatalf("flow %v: rate %v != %v", f, st2.Rate[f], st.Rate[f])
		}
		a, b := st.Alloc[f], st2.Alloc[f]
		if len(a) != len(b) {
			t.Fatalf("flow %v: alloc length %d != %d", f, len(b), len(a))
		}
		// Tunnel order may differ between the layouts; compare per-path.
		for ti, tun := range set.Tunnels(f) {
			found := false
			for _, tun2 := range set2.Tunnels(f) {
				if len(tun.Links) == len(tun2.Links) && b[tun2.Index] == a[ti] {
					found = true
					break
				}
			}
			if !found && a[ti] != 0 {
				t.Fatalf("flow %v tunnel %d: alloc %v not found in rebuilt set", f, ti, a[ti])
			}
		}
	}

	if !sc.Scan() {
		t.Fatal("no second line")
	}
	if got2, err := ParseTraceRecord(sc.Bytes()); err != nil || got2.Seq != 4 {
		t.Fatalf("second record: %+v err %v", got2, err)
	}
}

func TestParseTraceRecordErrors(t *testing.T) {
	if _, err := ParseTraceRecord([]byte(`{"seq":`)); err == nil {
		t.Fatal("garbage should error")
	}
	for _, line := range []string{`{"seq":1,"kc":-1}`, `{"seq":1,"ke":100000}`} {
		if _, err := ParseTraceRecord([]byte(line)); err == nil ||
			!strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: %v, want a protection out of range", line, err)
		}
	}
}

func TestTunnelSetFromStateErrors(t *testing.T) {
	net, set, demands, st := exampleSetAndState(t)
	good := EncodeState(net, set, demands, st)

	mutate := func(fn func(sf *StateFile)) *StateFile {
		cp := good
		cp.Flows = append([]StateFlow(nil), good.Flows...)
		fn(&cp)
		return &cp
	}

	cases := []struct {
		name string
		sf   *StateFile
		want string
	}{
		{"unknown-switch", mutate(func(sf *StateFile) {
			f := sf.Flows[0]
			f.Src = "nope"
			sf.Flows[0] = f
		}), "unknown switch"},
		{"self-flow", mutate(func(sf *StateFile) {
			f := sf.Flows[0]
			f.Dst = f.Src
			sf.Flows[0] = f
		}), "src == dst"},
		{"duplicate-flow", mutate(func(sf *StateFile) {
			sf.Flows = append(sf.Flows, sf.Flows[0])
		}), "duplicate flow"},
		{"short-path", mutate(func(sf *StateFile) {
			f := sf.Flows[0]
			f.Tunnels = append([]TunnelAlloc(nil), f.Tunnels...)
			f.Tunnels[0].Path = f.Tunnels[0].Path[:1]
			sf.Flows[0] = f
		}), "hops"},
		{"unknown-hop", mutate(func(sf *StateFile) {
			f := sf.Flows[0]
			f.Tunnels = append([]TunnelAlloc(nil), f.Tunnels...)
			f.Tunnels[0].Path = append([]string(nil), f.Tunnels[0].Path...)
			f.Tunnels[0].Path[0] = "nope2"
			sf.Flows[0] = f
		}), "unknown switch"},
	}
	for _, tc := range cases {
		if _, err := TunnelSetFromState(net, tc.sf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want containing %q", tc.name, err, tc.want)
		}
	}

	// No-link: a path naming two non-adjacent switches.
	var aName, bName string
outer:
	for a := range net.Switches {
		for b := range net.Switches {
			if a == b {
				continue
			}
			if net.FindLink(topology.SwitchID(a), topology.SwitchID(b)) == topology.None {
				aName, bName = net.Switches[a].Name, net.Switches[b].Name
				break outer
			}
		}
	}
	if aName != "" {
		bad := mutate(func(sf *StateFile) {
			f := sf.Flows[0]
			f.Tunnels = append([]TunnelAlloc(nil), f.Tunnels...)
			f.Tunnels[0].Path = []string{aName, bName}
			sf.Flows[0] = f
		})
		if _, err := TunnelSetFromState(net, bad); err == nil ||
			(!strings.Contains(err.Error(), "no link") && !strings.Contains(err.Error(), "don't match")) {
			t.Fatalf("no-link path: %v", err)
		}
	}
}

func TestResolveDownSets(t *testing.T) {
	net := topology.Example4()
	dl, ds, err := ResolveDownSets(net, [][2]string{{"s1", "s2"}}, []string{"s3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("down switches: %v", ds)
	}
	// Both directions of the physical link must be down.
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	fwd := net.FindLink(s1, s2)
	rev := net.FindLink(s2, s1)
	if fwd == topology.None || !dl[fwd] {
		t.Fatalf("forward link not down: %v", dl)
	}
	if rev != topology.None && !dl[rev] {
		t.Fatalf("reverse link not down: %v", dl)
	}

	// Reversed name order resolves too.
	dl2, _, err := ResolveDownSets(net, [][2]string{{"s2", "s1"}}, nil)
	if err != nil || len(dl2) != len(dl) {
		t.Fatalf("reversed pair: %v %v", dl2, err)
	}

	if _, _, err := ResolveDownSets(net, [][2]string{{"s1", "nope"}}, nil); err == nil {
		t.Fatal("unknown link switch should error")
	}
	if _, _, err := ResolveDownSets(net, nil, []string{"nope"}); err == nil {
		t.Fatal("unknown down switch should error")
	}
	if _, _, err := ResolveDownSets(net, [][2]string{{"s1", "s4"}}, nil); err == nil {
		t.Log("s1-s4 adjacent in Example4; skipping no-link assertion")
	}
}
