package check

import (
	"math"
	"math/rand"
	"testing"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// TestEncodingsAgreeAtDaemonOptions solves an ffcd-style churn sequence on
// L-Net with the daemon's solver options, once per encoding, each in its
// own Session: demand redraws, a loaded link down, drift while it is down,
// the link back up. The bubble network and Compact must reach the same
// optimum at every step and both plans must certify exactly. The kc=1 leg
// hands both encodings the same Prev each step, since their optimal
// vertices (and so their plans) may differ.
func TestEncodingsAgreeAtDaemonOptions(t *testing.T) {
	net := topology.LNet(topology.LNetConfig{Sites: 8}, rand.New(rand.NewSource(1)))
	series := demand.Generate(net, demand.Config{Intervals: 4}, rand.New(rand.NewSource(8)))
	set := tunnel.Layout(net, series[0].Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 6, P: 1, Q: 3})
	encodings := []core.Encoding{core.Compact, core.SortNet}
	solvers := make([]*core.Solver, len(encodings))
	for i, enc := range encodings {
		solvers[i] = core.NewSolver(net, set, core.Options{Encoding: enc, MiceFraction: 0.01})
	}

	for _, prot := range []core.Protection{{Ke: 2, Kv: 1}, {Kc: 1, Ke: 2, Kv: 1}} {
		sessions := make([]*core.Session, len(solvers))
		for i, s := range solvers {
			sessions[i] = s.NewSession()
		}
		down := map[topology.LinkID]bool{}
		var prev *core.State
		for i, step := range []struct {
			name    string
			demands demand.Matrix
			down    map[topology.LinkID]bool
		}{
			{"redraw 0", series[0], nil},
			{"redraw 1", series[1], nil},
			{"link down", series[1], down},
			{"drift while down", series[2], down},
			{"link up", series[3], nil},
		} {
			// ×20 congests the fixture, so the protection bounds bind.
			in := core.Input{Demands: step.demands.Scale(20), Prot: prot, Prev: prev, DownLinks: step.down}
			if prot.Kc > 0 && prev == nil {
				in.Prot.Kc = 0 // the first plan has nothing installed before it
			}
			var objs []float64
			var plans []*core.State
			for j, se := range sessions {
				st, stats, err := se.Solve(in)
				if err != nil {
					t.Fatalf("%v %s %v: %v", prot, step.name, encodings[j], err)
				}
				certPrev := prev
				if certPrev == nil {
					certPrev = st
				}
				cert, err := Certify(net, set, st, certPrev, Params{Prot: in.Prot, DownLinks: step.down})
				if err != nil {
					t.Fatalf("%v %s %v: certify: %v", prot, step.name, encodings[j], err)
				}
				if !cert.Exact || !cert.OK {
					t.Fatalf("%v %s %v: %s", prot, step.name, encodings[j], cert.Summary())
				}
				objs = append(objs, stats.Objective)
				plans = append(plans, st)
			}
			if d := math.Abs(objs[0] - objs[1]); d > 1e-9*math.Max(1, math.Abs(objs[0])) {
				t.Fatalf("%v %s: compact objective %.12g, sortnet %.12g", prot, step.name, objs[0], objs[1])
			}
			if i == 0 {
				if plans[0].TotalRate() >= in.Demands.Total()-1e-6 {
					t.Fatal("L-Net fixture is uncongested")
				}
				loads := plans[0].LinkLoads(set)
				var loaded topology.LinkID
				for _, l := range net.Links {
					if loads[l.ID] > loads[loaded] {
						loaded = l.ID
					}
				}
				down[loaded] = true
				if tw := net.Links[loaded].Twin; tw != topology.None {
					down[tw] = true
				}
			}
			if prot.Kc > 0 {
				prev = plans[0]
			}
		}
	}
}
