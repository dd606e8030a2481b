// Real-topology walkthrough: load the Abilene research backbone (Internet
// Topology Zoo GraphML), lay out FFC tunnels, and compare protection levels
// and their capacity-planning cost on a network that actually existed.
//
//	go run ./examples/real_topology
package main

import (
	_ "embed"
	"fmt"
	"log"
	"strings"

	"ffc"
)

//go:embed abilene.graphml
var abilene string

func main() {
	net, err := ffc.ParseGraphMLTopology(strings.NewReader(abilene), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %d PoPs, %d directed links\n", net.Name, net.NumSwitches(), net.NumLinks())

	// Coast-to-coast flows plus regional traffic.
	mk := func(a, b string) ffc.Flow {
		src, ok1 := net.SwitchByName(a)
		dst, ok2 := net.SwitchByName(b)
		if !ok1 || !ok2 {
			log.Fatalf("missing PoP %s/%s", a, b)
		}
		return ffc.Flow{Src: src, Dst: dst}
	}
	flows := []ffc.Flow{
		mk("New York", "Sunnyvale"),
		mk("Seattle", "Atlanta"),
		mk("Chicago", "Los Angeles"),
		mk("Washington DC", "Houston"),
	}
	demands := ffc.Demands{flows[0]: 6, flows[1]: 4, flows[2]: 5, flows[3]: 4}

	ctl, err := ffc.NewController(net, flows, ffc.ControllerConfig{TunnelsPerFlow: 3})
	if err != nil {
		log.Fatal(err)
	}

	for _, prot := range []ffc.Protection{{}, {Ke: 1}, {Ke: 2}} {
		st, stats, err := ctl.Compute(demands, prot)
		if err != nil {
			log.Fatal(err)
		}
		safe := "n/a"
		if prot.Ke > 0 {
			v, err := ctl.VerifyDataPlane(st, prot.Ke, 0)
			if err != nil {
				log.Fatal(err)
			}
			safe = "verified"
			if v != nil {
				safe = "VIOLATED"
			}
		}
		fmt.Printf("prot %v: throughput %.1f/%.0f, LP %dx%d in %v, guarantee %s\n",
			prot, st.TotalRate(), demands.Total(), stats.Vars, stats.Constraints,
			stats.SolveTime.Round(0), safe)
	}

	added, total, err := ctl.PlanCapacityFor(demands, ffc.Protection{Ke: 1}, nil)
	if err != nil {
		log.Fatal(err)
	}
	if total == 0 {
		fmt.Println("\nke=1 protection needs no extra capacity on Abilene for this demand")
	} else {
		fmt.Printf("\nke=1 protection at full demand requires %.1f Gbps of upgrades:\n", total)
		for l, x := range added {
			lk := net.Links[l]
			fmt.Printf("  %s → %s: +%.1f Gbps\n", net.Switches[lk.Src].Name, net.Switches[lk.Dst].Name, x)
		}
	}
}
