package ffc

import (
	"math"
	"testing"
)

func exampleController(t *testing.T) (*Controller, Flow, Flow, Flow) {
	t.Helper()
	net := Example4Topology()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	f24 := Flow{Src: s2, Dst: s4}
	f34 := Flow{Src: s3, Dst: s4}
	f14 := Flow{Src: s1, Dst: s4}
	ctl, err := NewController(net, []Flow{f24, f34, f14}, ControllerConfig{TunnelsPerFlow: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ctl, f24, f34, f14
}

func TestControllerComputeInstall(t *testing.T) {
	ctl, f24, f34, _ := exampleController(t)
	st, stats, err := ctl.Compute(Demands{f24: 10, f34: 10}, NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.TotalRate()-20) > 1e-6 {
		t.Fatalf("throughput %v", st.TotalRate())
	}
	if stats.SolveTime <= 0 {
		t.Fatal("missing stats")
	}
	ctl.Install(st)
	if ctl.Current().TotalRate() != st.TotalRate() {
		t.Fatal("install did not take")
	}
	// Install clones: mutating st must not affect the controller.
	st.Rate[f24] = 0
	if ctl.Current().Rate[f24] == 0 {
		t.Fatal("Install aliased caller state")
	}
}

func TestControllerFFCGuarantee(t *testing.T) {
	ctl, f24, f34, _ := exampleController(t)
	st, _, err := ctl.Compute(Demands{f24: 14, f34: 6}, Protection{Ke: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctl.VerifyDataPlane(st, 1, 0); err != nil || v != nil {
		t.Fatalf("guarantee violated: %+v (%v)", v, err)
	}
	plain, _, err := ctl.Compute(Demands{f24: 14, f34: 6}, NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctl.VerifyDataPlane(plain, 1, 0); err != nil || v == nil {
		t.Fatalf("plain TE unexpectedly 1-link safe (%v)", err)
	}
}

func TestControllerControlPlane(t *testing.T) {
	ctl, f24, f34, f14 := exampleController(t)
	prev, _, err := ctl.Compute(Demands{f24: 10, f34: 10}, NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Install(prev)
	st, _, err := ctl.Compute(Demands{f24: 10, f34: 10, f14: 10}, Protection{Kc: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ctl.VerifyControlPlane(st, 1); err != nil || v != nil {
		t.Fatalf("control guarantee violated: %+v (%v)", v, err)
	}
}

func TestControllerRejectsUnroutableFlow(t *testing.T) {
	net := NewTopology("island")
	a := net.AddSwitch("a", "a", 0, 0)
	b := net.AddSwitch("b", "b", 0, 1)
	net.AddSwitch("c", "c", 0, 2) // disconnected
	net.AddDuplex(a, b, 1)
	c, _ := net.SwitchByName("c")
	_, err := NewController(net, []Flow{{Src: a, Dst: c}}, ControllerConfig{})
	if err == nil {
		t.Fatal("expected error for unroutable flow")
	}
}

func TestControllerMaxMin(t *testing.T) {
	ctl, f24, f34, _ := exampleController(t)
	st, err := ctl.ComputeMaxMin(Demands{f24: 14, f34: 14}, NoProtection, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Rate[f24]-st.Rate[f34]) > 1.2 {
		t.Fatalf("max-min shares uneven: %v / %v", st.Rate[f24], st.Rate[f34])
	}
}

func TestControllerPlanUpdate(t *testing.T) {
	ctl, f24, f34, f14 := exampleController(t)
	prev, _, err := ctl.Compute(Demands{f24: 10, f34: 10}, NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Install(prev)
	target, _, err := ctl.Compute(Demands{f24: 10, f34: 10, f14: 10}, Protection{Kc: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ctl.PlanUpdate(target, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Reached || len(plan.Steps) == 0 {
		t.Fatalf("plan incomplete: %+v", plan)
	}
}

func TestControllerPriorities(t *testing.T) {
	ctl, f24, f34, _ := exampleController(t)
	high := Demands{f24: 3, f34: 3}
	low := Demands{f24: 20, f34: 20}
	states, err := ctl.ComputePriorities(
		[]string{"high", "low"},
		[]Demands{high, low},
		[]Protection{{Ke: 1}, {}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("%d classes", len(states))
	}
	if states[0].State.TotalRate() < 6-1e-6 {
		t.Fatalf("high class under-served: %v", states[0].State.TotalRate())
	}
	// High class keeps its data-plane guarantee.
	if v, err := ctl.VerifyDataPlane(states[0].State, 1, 0); err != nil || v != nil {
		t.Fatalf("high class guarantee violated: %+v (%v)", v, err)
	}
	// Low class fills remaining capacity (well above zero).
	if states[1].State.TotalRate() <= 0 {
		t.Fatal("low class got nothing")
	}
}

func TestComputePrioritiesRejectsInvertedProtection(t *testing.T) {
	ctl, f24, _, _ := exampleController(t)
	_, err := ctl.ComputePriorities(
		[]string{"high", "low"},
		[]Demands{{f24: 1}, {f24: 1}},
		[]Protection{{}, {Ke: 1}},
	)
	if err == nil {
		t.Fatal("expected §5.1 ordering error")
	}
}

func TestGenerateDemandsAndLNet(t *testing.T) {
	net := LNetTopology(6, 3)
	if !net.Connected() {
		t.Fatal("LNet disconnected")
	}
	series := GenerateDemands(net, 4, 3)
	if len(series) != 4 || series[0].Total() <= 0 {
		t.Fatalf("bad series: %d intervals", len(series))
	}
	if SNetTopology().NumSwitches() != 24 {
		t.Fatal("SNet shape")
	}
	if TestbedTopology().NumSwitches() != 8 {
		t.Fatal("testbed shape")
	}
}

func TestControllerPlanCapacity(t *testing.T) {
	ctl, f24, _, _ := exampleController(t)
	added, total, err := ctl.PlanCapacityFor(Demands{f24: 24}, NoProtection, nil)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4-1e-6 {
		t.Fatalf("expansion %v (%v), want ≥ 4 for a 24-unit demand over 20 units of path capacity", total, added)
	}
}

func TestControllerShadowPrices(t *testing.T) {
	ctl, f24, _, _ := exampleController(t)
	prices, err := ctl.ShadowPrices(Demands{f24: 30}, NoProtection)
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, p := range prices {
		if p > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("saturated network has no positively-priced link")
	}
}

func TestFFCOnFatTree(t *testing.T) {
	// The paper's DCN setting: elephant flows between edge switches of a
	// fat-tree; FFC's guarantee must hold there too.
	net := FatTreeTopology(4, 10)
	edges := net.EdgeSwitches()
	flows := []Flow{
		{Src: edges[0], Dst: edges[4]},
		{Src: edges[1], Dst: edges[6]},
		{Src: edges[2], Dst: edges[7]},
	}
	ctl, err := NewController(net, flows, ControllerConfig{TunnelsPerFlow: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := Demands{flows[0]: 12, flows[1]: 12, flows[2]: 12}
	st, _, err := ctl.Compute(d, Protection{Ke: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRate() <= 0 {
		t.Fatal("no throughput on fat-tree")
	}
	if v, err := ctl.VerifyDataPlane(st, 1, 0); err != nil || v != nil {
		t.Fatalf("fat-tree FFC guarantee violated: %+v (%v)", v, err)
	}
}

func TestControllerComputeMinMLU(t *testing.T) {
	ctl, f24, _, _ := exampleController(t)
	res, err := ctl.ComputeMinMLU(Demands{f24: 14}, NoProtection, DemandUncertainty{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MLU <= 0 || res.MLU > 1 {
		t.Fatalf("MLU %v for a fitting demand", res.MLU)
	}
	if res.State.Rate[f24] < 14-1e-6 {
		t.Fatalf("MinMLU must carry the offered demand, got %v", res.State.Rate[f24])
	}
	// With demand uncertainty the planned fault ceiling appears.
	res2, err := ctl.ComputeMinMLU(Demands{f24: 14}, NoProtection, DemandUncertainty{Count: 1, Factor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.FaultMLU <= 0 {
		t.Fatalf("FaultMLU missing: %+v", res2)
	}
}

func TestControllerPerCaseOptimal(t *testing.T) {
	ctl, f24, f34, _ := exampleController(t)
	d := Demands{f24: 14, f34: 6}
	ffcSt, _, err := ctl.Compute(d, Protection{Ke: 1})
	if err != nil {
		t.Fatal(err)
	}
	bound, _, err := ctl.PerCaseOptimal(d, SingleLinkFailureCases(ctl.Network()))
	if err != nil {
		t.Fatal(err)
	}
	if ffcSt.TotalRate() > bound.TotalRate()+1e-6 {
		t.Fatalf("FFC %v exceeds per-case bound %v", ffcSt.TotalRate(), bound.TotalRate())
	}
}
