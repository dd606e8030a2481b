package sim

import (
	"testing"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// TestRunServesOnlyCertifiedPlans is the simulator's twin of ctrl's
// TestServesOnlyCertifiedPlans: the certifier sees (through certCapacity)
// the three links that only flow s3→s2 uses at capacity cSmall, below what
// the solver may use. The flow's demand alternates between fitting under
// cSmall and needing more than 2·cSmall, which no ke=1 plan can carry over
// the three links. Every oversized interval must degrade as "uncertified",
// every other interval must land, and every installed plan must certify
// against the cut capacities and load no cut link beyond cSmall.
func TestRunServesOnlyCertifiedPlans(t *testing.T) {
	const (
		cSmall    = 1.0
		fits      = 1.0
		oversize  = 8.0
		intervals = 8
	)
	sc, cut, small := cutScenario(intervals, fits, oversize, cSmall)
	net, tun, series := sc.Net, sc.Tun, sc.Series
	certCapacity = cut
	defer func() { certCapacity = nil }()
	prot := core.Protection{Ke: 1}
	var plans []PlanRecord
	res, err := Run(sc, RunConfig{
		Prot:        prot,
		NoCarryover: true,
		OnPlan:      func(pr PlanRecord) { plans = append(plans, pr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != intervals {
		t.Fatalf("%d plans installed, want %d", len(plans), intervals)
	}
	for i, rec := range res.Timeline {
		want := ""
		if i%2 == 1 {
			want = "uncertified"
		}
		if rec.Degraded != want {
			t.Fatalf("interval %d (demand %g): degraded %q, want %q", i, series[i][small], rec.Degraded, want)
		}
	}
	if res.DegradedIntervals != intervals/2 {
		t.Fatalf("DegradedIntervals = %d, want %d", res.DegradedIntervals, intervals/2)
	}
	for _, pr := range plans {
		if pr.Degraded != "" && pr.Prot != core.None {
			t.Fatalf("interval %d: degraded plan reports protection %v", pr.Interval, pr.Prot)
		}
		for l, load := range pr.State.ActualLinkLoads(tun) {
			if c, ok := cut[l]; ok && load > c+1e-9 {
				t.Fatalf("interval %d: load %g > %g on cut link %d", pr.Interval, load, c, l)
			}
		}
		cert, err := check.Certify(net, tun, pr.State, pr.Prev, check.Params{Prot: pr.Prot, Capacity: cut})
		if err != nil {
			t.Fatal(err)
		}
		if !cert.OK {
			t.Fatalf("interval %d: installed plan fails certification: %+v", pr.Interval, cert.Violation)
		}
	}
}

// cutScenario is Example4 with flow s3→s2 (small) asking for fits on even
// intervals and oversize on odd ones, and the three links only small uses
// (one on each of its tunnels) mapped to capacity c in cut.
func cutScenario(intervals int, fits, oversize, c float64) (Scenario, map[topology.LinkID]float64, tunnel.Flow) {
	net := topology.Example4()
	sw := func(name string) topology.SwitchID {
		id, _ := net.SwitchByName(name)
		return id
	}
	cut := map[topology.LinkID]float64{}
	for _, pair := range [][2]string{{"s3", "s2"}, {"s3", "s1"}, {"s4", "s2"}} {
		cut[net.FindLink(sw(pair[0]), sw(pair[1]))] = c
	}
	small := tunnel.Flow{Src: sw("s3"), Dst: sw("s2")}
	series := make(demand.Series, intervals)
	for i := range series {
		series[i] = demand.Matrix{
			{Src: sw("s2"), Dst: sw("s4")}: 10,
			{Src: sw("s1"), Dst: sw("s4")}: 4,
			small:                          fits,
		}
		if i%2 == 1 {
			series[i][small] = oversize
		}
	}
	tun := tunnel.Layout(net, series.Flows(), tunnel.LayoutConfig{TunnelsPerFlow: 3})
	return Scenario{Net: net, Tun: tun, Series: series, Seed: 1}, cut, small
}

// TestRunKeepsPlanWhenFallbackUncertified: once interval 0's plan is
// installed, the certifier sees the cut links at capacity 0, so every later
// solved plan and every Degrade fallback over interval 0's plan (which
// loads those links) fails certification. The control step then returns
// no plan, and the class keeps serving interval 0's state.
func TestRunKeepsPlanWhenFallbackUncertified(t *testing.T) {
	sc, cut, _ := cutScenario(4, 1, 1, 0)
	defer func() { certCapacity = nil }()
	var plans []PlanRecord
	res, err := Run(sc, RunConfig{
		Prot:        core.Protection{Ke: 1},
		NoCarryover: true,
		OnPlan: func(pr PlanRecord) {
			plans = append(plans, pr)
			certCapacity = cut
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range res.Timeline {
		want := "uncertified"
		if i == 0 {
			want = ""
		}
		if rec.Degraded != want {
			t.Fatalf("interval %d: degraded %q, want %q", i, rec.Degraded, want)
		}
		if i > 0 && plans[i].State != plans[0].State {
			t.Fatalf("interval %d installed a new state; want interval 0's kept", i)
		}
	}
}
