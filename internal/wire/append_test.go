package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// lnetPlan solves the seed-1 8-site L-Net's (0,2,1) plan at ffcd's options
// (six (1,3)-disjoint tunnels a flow, 1 % mice) over the benchmark's
// seed-8 gravity demands.
func lnetPlan(t testing.TB) StateFile {
	t.Helper()
	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	dem := demand.Generate(net, demand.Config{Intervals: 1, NoiseSigma: 1e-12}, rand.New(rand.NewSource(8)))[0]
	set := tunnel.Layout(net, dem.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	st, _, err := core.NewSolver(net, set, core.Options{MiceFraction: 0.01}).Solve(core.Input{Demands: dem, Prot: core.Protection{Ke: 2, Kv: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return EncodeState(net, set, dem, st)
}

// appendCases are the state files AppendState must write as json.Marshal
// does: flows without tunnels and with all-zero allocations, switch names
// that need escaping, and floats on encoding/json's format switches.
func appendCases() map[string]StateFile {
	names := []string{`"`, `\`, `<`, `>`, `&`, "\u2028", "\u2029", "héllo", "日本", "\xff", "a\xc3", "\x00\x1f\b\f\n\r\t", "plain"}
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, -1e-7, -1e21, 0.1, 123456789.125, 1.5e-300}
	cases := map[string]StateFile{
		"empty":   {},
		"no flow": {Flows: []StateFlow{}},
		"no tunnels": {TotalDemand: 3, Flows: []StateFlow{
			{Src: "a", Dst: "b", Demand: 3},
			{Src: "a", Dst: "c", Demand: 0, Tunnels: []TunnelAlloc{}},
		}},
		"zero allocations": {TotalDemand: 1, Flows: []StateFlow{{Src: "a", Dst: "b", Demand: 1, Tunnels: []TunnelAlloc{
			{Path: []string{"a", "b"}}, {Path: []string{"a", "c", "b"}}, {Path: []string{}}, {},
		}}}},
	}
	var esc StateFile
	for i, n := range names {
		esc.Flows = append(esc.Flows, StateFlow{Src: n, Dst: names[(i+1)%len(names)],
			Tunnels: []TunnelAlloc{{Path: []string{n, "x" + n + "y", n + n}}}})
	}
	cases["escaped names"] = esc
	var num StateFile
	for i, f := range floats {
		num.TotalDemand, num.TotalRate = f, -f
		num.Flows = append(num.Flows, StateFlow{Src: "a", Dst: "b", Demand: f, Rate: floats[(i+3)%len(floats)],
			Tunnels: []TunnelAlloc{{Path: []string{"a", "b"}, Alloc: f, Weight: floats[(i+1)%len(floats)]}}})
	}
	cases["float formats"] = num
	return cases
}

// TestAppendStateMatchesMarshal: AppendState writes byte for byte what
// json.Marshal writes, on the seed-1 plan and on every appendCases file,
// appending after what dst held; like json.Marshal it refuses NaN and ±Inf.
func TestAppendStateMatchesMarshal(t *testing.T) {
	cases := appendCases()
	cases["seed-1 L-Net (0,2,1) plan"] = lnetPlan(t)
	for name, sf := range cases {
		want, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendState([]byte("prefix"), &sf)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("%s: err %v\n got %s\nwant prefix%s", name, err, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		sf := StateFile{Flows: []StateFlow{{Src: "a", Dst: "b", Tunnels: []TunnelAlloc{{Weight: bad}}}}}
		if _, err := AppendState(nil, &sf); err == nil {
			t.Fatalf("AppendState accepted %v", bad)
		}
	}
}

// FuzzAppendState holds AppendState to json.Marshal on one-flow state files
// built from arbitrary names and numbers, seeded with appendCases: the same
// bytes, or an error from both.
func FuzzAppendState(f *testing.F) {
	for _, sf := range appendCases() {
		for _, fl := range sf.Flows {
			alloc, weight, hop := 0.0, 0.0, ""
			if len(fl.Tunnels) > 0 {
				alloc, weight = fl.Tunnels[0].Alloc, fl.Tunnels[0].Weight
				if len(fl.Tunnels[0].Path) > 0 {
					hop = fl.Tunnels[0].Path[0]
				}
			}
			f.Add(fl.Src, fl.Dst, hop, sf.TotalDemand, fl.Rate, alloc, weight)
		}
	}
	f.Fuzz(func(t *testing.T, src, dst, hop string, total, rate, alloc, weight float64) {
		sf := StateFile{TotalDemand: total, TotalRate: rate, Flows: []StateFlow{
			{Src: src, Dst: dst, Demand: total, Rate: rate, Tunnels: []TunnelAlloc{{Path: []string{src, hop, dst}, Alloc: alloc, Weight: weight}}},
			{Src: hop, Dst: hop},
		}}
		want, wantErr := json.Marshal(sf)
		got, err := AppendState(nil, &sf)
		if (err != nil) != (wantErr != nil) || (err == nil && !bytes.Equal(got, want)) {
			t.Fatalf("AppendState: err %v, json.Marshal: err %v\n got %s\nwant %s", err, wantErr, got, want)
		}
	})
}
