// Multi-priority FFC (§5.1/§8.4): interactive traffic gets strong
// protection, background traffic rides the reserved headroom, and total
// throughput stays near the unprotected optimum.
//
//	go run ./examples/multipriority
package main

import (
	"fmt"
	"log"

	"ffc"
)

func main() {
	// A synthetic 8-site WAN with site-pair flows.
	net := ffc.LNetTopology(8, 42)
	series := ffc.GenerateDemands(net, 1, 42)
	matrix := series[0]

	var flows []ffc.Flow
	for f := range matrix {
		flows = append(flows, f)
	}
	ctl, err := ffc.NewController(net, flows, ffc.ControllerConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Scale demand up until the network is busy (~3× the raw gravity
	// matrix keeps this example interesting without calibration machinery).
	total := ffc.Demands{}
	for f, d := range matrix {
		total[f] = d * 3
	}
	// 20% interactive (high), 30% deadline (med), 50% background (low).
	high, med, low := ffc.Demands{}, ffc.Demands{}, ffc.Demands{}
	for f, d := range total {
		high[f], med[f], low[f] = 0.2*d, 0.3*d, 0.5*d
	}

	states, err := ctl.ComputePriorities(
		[]string{"high", "med", "low"},
		[]ffc.Demands{high, med, low},
		[]ffc.Protection{{Kc: 3, Ke: 3}, {Kc: 2, Ke: 1}, {}},
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("priority cascade (each class sees the residual capacity of the classes above):")
	var grand float64
	for _, ps := range states {
		fmt.Printf("  %-4s prot %v: granted %.1f of %.1f demanded (%.0f%%)\n",
			ps.Class, ps.Prot, ps.State.TotalRate(), ps.Demand,
			100*ps.State.TotalRate()/ps.Demand)
		grand += ps.State.TotalRate()
	}
	fmt.Printf("  total granted: %.1f\n\n", grand)

	// The headline property: the high class survives worst-case faults.
	if v, err := ctl.VerifyDataPlane(states[0].State, 1, 0); err != nil || v != nil {
		log.Fatalf("high class not 1-link safe: %+v (%v)", v, err)
	}
	fmt.Println("high class verified congestion-free under every single link failure;")
	fmt.Println("low class uses the reserved headroom and is shed first by priority queueing when faults strike")
}
