// Control-plane FFC (the paper's Figures 3 and 5): admitting a new flow
// requires existing switches to move traffic; FFC reserves for the ones
// that may fail to update. Reproduces the paper's 10/7/4 admission series
// exactly, using the figures' tunnel layout.
//
//	go run ./examples/controlplane_update
package main

import (
	"fmt"
	"log"

	"ffc"
)

func main() {
	net := ffc.Example4Topology()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	f24 := ffc.Flow{Src: s2, Dst: s4}
	f34 := ffc.Flow{Src: s3, Dst: s4}
	f14 := ffc.Flow{Src: s1, Dst: s4}

	// The figures' layout: {s2,s3}→s4 each have a direct tunnel and one
	// via s1; the new flow s1→s4 has only its direct link.
	mk := func(f ffc.Flow, hops ...ffc.SwitchID) *ffc.Tunnel {
		t := &ffc.Tunnel{Flow: f, Switches: hops}
		for i := 0; i+1 < len(hops); i++ {
			l := net.FindLink(hops[i], hops[i+1])
			if l < 0 {
				log.Fatalf("missing link %d→%d", hops[i], hops[i+1])
			}
			t.Links = append(t.Links, l)
		}
		return t
	}
	tun := ffc.NewTunnelSet(net)
	tun.Add(f24, mk(f24, s2, s4), mk(f24, s2, s1, s4))
	tun.Add(f34, mk(f34, s3, s4), mk(f34, s3, s1, s4))
	tun.Add(f14, mk(f14, s1, s4))
	ctl := ffc.NewControllerWithTunnels(net, tun, ffc.SolverOptions{})

	// Install the "before" configuration of Figure 3(a): both existing
	// flows send 7 units direct and 3 via s1 (link s1–s4 carries 6/10).
	prev := ffc.NewState()
	prev.Rate[f24], prev.Alloc[f24] = 10, []float64{7, 3}
	prev.Rate[f34], prev.Alloc[f34] = 10, []float64{7, 3}
	ctl.Install(prev)

	fmt.Println("old config: {s2,s3}→s4 split 7 direct + 3 via s1 (link s1–s4 carries 6/10)")
	fmt.Println("new flow s1→s4 wants 10 units on the direct link s1–s4")
	fmt.Println()

	demands := ffc.Demands{f24: 10, f34: 10, f14: 10}
	for kc := 0; kc <= 2; kc++ {
		st, _, err := ctl.Compute(demands, ffc.Protection{Kc: kc})
		if err != nil {
			log.Fatal(err)
		}
		v, err := ctl.VerifyControlPlane(st, kc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("kc=%d: admit %.0f units of s1→s4 (total %.0f, exhaustive %d-stale-switch check: %v)\n",
			kc, st.Rate[f14], st.TotalRate(), kc, v == nil)
	}
	fmt.Println("\npaper's Figure 5: 10 units unprotected, 7 with kc=1, 4 with kc=2")

	// And the danger this avoids: the unprotected plan congests if one
	// switch keeps its old splitting weights (Figure 3(c)).
	plain, _, err := ctl.Compute(demands, ffc.NoProtection)
	if err != nil {
		log.Fatal(err)
	}
	v, err := ctl.VerifyControlPlane(plain, 1)
	if err != nil {
		log.Fatal(err)
	}
	if v != nil {
		fmt.Printf("\nunprotected plan under one stale switch: %v keeps its old weights, link %s overloads by %.1f units\n",
			v.Faults.StaleNames, v.LinkName, v.Over)
	}
}
