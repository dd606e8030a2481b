// Quickstart: compute an FFC-protected traffic distribution on a small
// network and show what the protection buys.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ffc"
)

func main() {
	// The 4-switch walkthrough network of the paper's Figures 2–5:
	// duplex 10-unit links s1↔s2, s1↔s3, s1↔s4, s2↔s4, s3↔s4, s2↔s3.
	net := ffc.Example4Topology()
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")

	flows := []ffc.Flow{{Src: s2, Dst: s4}, {Src: s3, Dst: s4}}
	ctl, err := ffc.NewController(net, flows, ffc.ControllerConfig{TunnelsPerFlow: 3})
	if err != nil {
		log.Fatal(err)
	}

	demands := ffc.Demands{flows[0]: 14, flows[1]: 6}

	// Plain TE: maximum throughput, but fragile.
	plain, _, err := ctl.Compute(demands, ffc.NoProtection)
	if err != nil {
		log.Fatal(err)
	}
	// FFC TE: guaranteed congestion-free under any single link failure.
	prot := ffc.Protection{Ke: 1}
	protected, stats, err := ctl.Compute(demands, prot)
	if err != nil {
		log.Fatal(err)
	}

	// oneLinkSafe reports whether no single link failure congests st.
	oneLinkSafe := func(st *ffc.State) bool {
		v, err := ctl.VerifyDataPlane(st, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		return v == nil
	}
	fmt.Printf("demands: %.0f units total\n", demands.Total())
	fmt.Printf("plain TE throughput:      %.2f  (1-link-failure safe: %v)\n", plain.TotalRate(), oneLinkSafe(plain))
	fmt.Printf("FFC(ke=1) throughput:     %.2f  (1-link-failure safe: %v)\n", protected.TotalRate(), oneLinkSafe(protected))
	fmt.Printf("FFC LP: %d variables, %d constraints, solved in %v\n",
		stats.Vars, stats.Constraints, stats.SolveTime.Round(0))

	fmt.Println("\nFFC tunnel allocations:")
	for _, f := range flows {
		fmt.Printf("  flow %s→%s  rate %.2f\n",
			net.Switches[f.Src].Name, net.Switches[f.Dst].Name, protected.Rate[f])
		for i, t := range ctl.Tunnels().Tunnels(f) {
			var hops []string
			for _, sw := range t.Switches {
				hops = append(hops, net.Switches[sw].Name)
			}
			fmt.Printf("    tunnel %d %v  alloc %.2f\n", i, hops, protected.Alloc[f][i])
		}
	}
	ctl.Install(protected)
	fmt.Println("\ninstalled; subsequent computations protect against stale switches relative to this state")
}
