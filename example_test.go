package ffc_test

import (
	"fmt"
	"log"

	"ffc"
)

// Example computes an FFC-protected traffic distribution on the paper's
// 4-switch walkthrough network and verifies the guarantee exhaustively.
func Example() {
	net := ffc.Example4Topology()
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	flows := []ffc.Flow{{Src: s2, Dst: s4}, {Src: s3, Dst: s4}}

	ctl, err := ffc.NewController(net, flows, ffc.ControllerConfig{TunnelsPerFlow: 2})
	if err != nil {
		log.Fatal(err)
	}
	demands := ffc.Demands{flows[0]: 14, flows[1]: 6}

	plain, _, _ := ctl.Compute(demands, ffc.NoProtection)
	protected, _, _ := ctl.Compute(demands, ffc.Protection{Ke: 1})

	// oneLinkSafe reports whether no single link failure congests st.
	oneLinkSafe := func(st *ffc.State) bool {
		v, err := ctl.VerifyDataPlane(st, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		return v == nil
	}
	fmt.Printf("plain: %.0f units, 1-link safe: %v\n", plain.TotalRate(), oneLinkSafe(plain))
	fmt.Printf("FFC:   %.0f units, 1-link safe: %v\n", protected.TotalRate(), oneLinkSafe(protected))
	// Output:
	// plain: 20 units, 1-link safe: false
	// FFC:   10 units, 1-link safe: true
}

// ExampleController_Compute reproduces the paper's Figure 5: the amount of
// a new flow that can be admitted shrinks as the tolerated number of stale
// switches grows.
func ExampleController_Compute() {
	net := ffc.Example4Topology()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	f24 := ffc.Flow{Src: s2, Dst: s4}
	f34 := ffc.Flow{Src: s3, Dst: s4}
	f14 := ffc.Flow{Src: s1, Dst: s4}

	mk := func(f ffc.Flow, hops ...ffc.SwitchID) *ffc.Tunnel {
		t := &ffc.Tunnel{Flow: f, Switches: hops}
		for i := 0; i+1 < len(hops); i++ {
			t.Links = append(t.Links, net.FindLink(hops[i], hops[i+1]))
		}
		return t
	}
	tun := ffc.NewTunnelSet(net)
	tun.Add(f24, mk(f24, s2, s4), mk(f24, s2, s1, s4))
	tun.Add(f34, mk(f34, s3, s4), mk(f34, s3, s1, s4))
	tun.Add(f14, mk(f14, s1, s4))
	ctl := ffc.NewControllerWithTunnels(net, tun, ffc.SolverOptions{})

	prev := ffc.NewState()
	prev.Rate[f24], prev.Alloc[f24] = 10, []float64{7, 3}
	prev.Rate[f34], prev.Alloc[f34] = 10, []float64{7, 3}
	ctl.Install(prev)

	demands := ffc.Demands{f24: 10, f34: 10, f14: 10}
	for kc := 0; kc <= 2; kc++ {
		st, _, err := ctl.Compute(demands, ffc.Protection{Kc: kc})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kc=%d: new flow gets %.0f units\n", kc, st.Rate[f14])
	}
	// Output:
	// kc=0: new flow gets 10 units
	// kc=1: new flow gets 7 units
	// kc=2: new flow gets 4 units
}

// ExampleController_PlanCapacityFor shows the §3.3 provisioning use case:
// how much capacity single-link-failure protection costs for a demand that
// must traverse two link-disjoint routes.
func ExampleController_PlanCapacityFor() {
	net := ffc.Example4Topology()
	s2, _ := net.SwitchByName("s2")
	s4, _ := net.SwitchByName("s4")
	f := ffc.Flow{Src: s2, Dst: s4}
	ctl, err := ffc.NewController(net, []ffc.Flow{f}, ffc.ControllerConfig{TunnelsPerFlow: 2})
	if err != nil {
		log.Fatal(err)
	}
	_, plain, _ := ctl.PlanCapacityFor(ffc.Demands{f: 14}, ffc.NoProtection, nil)
	_, prot, _ := ctl.PlanCapacityFor(ffc.Demands{f: 14}, ffc.Protection{Ke: 1}, nil)
	fmt.Printf("capacity to buy without protection: %.0f units\n", plain)
	fmt.Printf("capacity to buy with ke=1:          %.0f units\n", prot)
	// Output:
	// capacity to buy without protection: 0 units
	// capacity to buy with ke=1:          12 units
}
