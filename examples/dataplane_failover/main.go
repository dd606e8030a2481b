// Data-plane failover (the paper's Figures 2 and 4): shows that plain TE
// congests after ingress rescaling while FFC's spread absorbs any single
// link failure without controller involvement.
//
//	go run ./examples/dataplane_failover
package main

import (
	"fmt"
	"log"

	"ffc"
)

func main() {
	net := ffc.Example4Topology()
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	f24 := ffc.Flow{Src: s2, Dst: s4}
	f34 := ffc.Flow{Src: s3, Dst: s4}

	ctl, err := ffc.NewController(net, []ffc.Flow{f24, f34}, ffc.ControllerConfig{TunnelsPerFlow: 2})
	if err != nil {
		log.Fatal(err)
	}
	demands := ffc.Demands{f24: 14, f34: 6}

	plain, _, err := ctl.Compute(demands, ffc.NoProtection)
	if err != nil {
		log.Fatal(err)
	}
	protected, _, err := ctl.Compute(demands, ffc.Protection{Ke: 1})
	if err != nil {
		log.Fatal(err)
	}

	for name, st := range map[string]*ffc.State{"plain TE": plain, "FFC ke=1": protected} {
		fmt.Printf("=== %s (throughput %.1f) ===\n", name, st.TotalRate())
		v, err := ctl.VerifyDataPlane(st, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		if v != nil {
			fmt.Printf("  UNSAFE: failing link %v overloads link %s by %.2f units\n",
				v.Faults.LinkNames, v.LinkName, v.Over)
		} else {
			fmt.Println("  safe: no single link failure can congest any link after rescaling")
		}
		// Walk each physical link failure and report the worst post-rescale load.
		tun := ctl.Tunnels()
		for _, id := range net.PhysicalLinks() {
			l := net.Links[id]
			down := map[ffc.LinkID]bool{l.ID: true}
			if l.Twin != -1 {
				down[l.Twin] = true
			}
			loads := map[ffc.LinkID]float64{}
			for _, f := range []ffc.Flow{f24, f34} {
				shares := tun.Rescale(f, st.Weights(f), st.Rate[f], down, nil)
				for _, t := range tun.Tunnels(f) {
					for _, lk := range t.Links {
						loads[lk] += shares[t.Index]
					}
				}
			}
			worstOver := 0.0
			var worstLink ffc.LinkID
			for lk, load := range loads {
				if down[lk] {
					continue
				}
				if over := load - net.Links[lk].Capacity; over > worstOver {
					worstOver, worstLink = over, lk
				}
			}
			a, b := net.Switches[l.Src].Name, net.Switches[l.Dst].Name
			if worstOver > 1e-9 {
				wl := net.Links[worstLink]
				fmt.Printf("  fail %s–%s → link %s–%s gets %.1f units over capacity\n",
					a, b, net.Switches[wl.Src].Name, net.Switches[wl.Dst].Name, worstOver)
			} else {
				fmt.Printf("  fail %s–%s → no congestion after rescaling\n", a, b)
			}
		}
	}
}
