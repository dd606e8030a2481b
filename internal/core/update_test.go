package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ffc/internal/demand"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// TestPlanUpdateDeterministic: one input replays to one plan. Each random
// 9-switch, 30-flow chain is planned 15 times per kc and every run must
// return the same steps, bit for bit, and the same Reached flag.
func TestPlanUpdateDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 1,800 update chains")
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net, tun, flows := randomNetwork(rng, 9, 30)
		d1, d2 := demand.Matrix{}, demand.Matrix{}
		for _, f := range flows {
			d1[f] = 0.1 + 3*rng.Float64()
			d2[f] = 0.1 + 3*rng.Float64()
		}
		s := NewSolver(net, tun, Options{})
		prev, _, err := s.Solve(Input{Demands: d1})
		if err != nil {
			t.Fatal(err)
		}
		target, _, err := s.Solve(Input{Demands: d2})
		if err != nil {
			t.Fatal(err)
		}
		for kc := 0; kc <= 2; kc++ {
			var first string
			for run := 0; run < 15; run++ {
				plan, _ := s.PlanUpdate(prev, target, kc, 6)
				got := planDigest(plan)
				if plan.Reached {
					got += ", reached"
				}
				if run == 0 {
					first = got
				} else if got != first {
					t.Fatalf("seed %d kc=%d: run %d planned %s, run 0 %s", seed, kc, run, got, first)
				}
			}
		}
	}
}

// TestTransitionSafeSound checks transitionSafe against brute force on
// small random chains with 2–3-configuration histories: whenever it calls
// a transition safe, no link may overload under any set of at most kc
// stale ingresses, each stuck on any one history configuration (its old
// weights × next's rates), while every other ingress sends the larger of
// its current and next traffic. The chains are random states at random
// load levels (so many transitions sit near the boundary) and the steps
// PlanUpdate itself plans.
func TestTransitionSafeSound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	checked := make([]int, 3) // safe transitions per kc
	for trial := 0; trial < 150; trial++ {
		net, tun, flows := randomNetwork(rng, 5, 6)
		s := NewSolver(net, tun, Options{})
		scale := 1 + 5*rng.Float64()
		chain := make([]*State, 3+rng.Intn(2))
		for j := range chain {
			chain[j] = randomChainState(rng, tun, flows, scale)
		}
		history, next := chain[:len(chain)-1], chain[len(chain)-1]
		for kc := 0; kc <= 2; kc++ {
			if !s.transitionSafe(history, next, kc) {
				continue
			}
			checked[kc]++
			if msg := staleOverload(net, tun, flows, history, next, kc); msg != "" {
				t.Fatalf("trial %d kc=%d: transitionSafe passed a transition where %s", trial, kc, msg)
			}
		}
		// The planner's own steps, from history[0] to a solved target.
		dem := demand.Matrix{}
		for _, f := range flows {
			dem[f] = scale * rng.Float64()
		}
		target, _, err := s.Solve(Input{Demands: dem})
		if err != nil {
			t.Fatal(err)
		}
		kc := rng.Intn(3)
		plan, _ := s.PlanUpdate(history[0], target, kc, 3)
		hist := history[:1]
		for _, st := range plan.Steps {
			if s.transitionSafe(hist, st, kc) {
				checked[kc]++
				if msg := staleOverload(net, tun, flows, hist, st, kc); msg != "" {
					t.Fatalf("trial %d kc=%d: planned step %d where %s", trial, kc, len(hist), msg)
				}
			}
			hist = append(hist[:len(hist):len(hist)], st)
		}
	}
	t.Logf("safe transitions checked per kc: %v", checked)
	for kc, n := range checked {
		if n < 40 {
			t.Fatalf("kc=%d: only %d safe transitions checked", kc, n)
		}
	}
}

// randomChainState gives every flow a rate in [0, scale) and a random
// split over its tunnels with at least one positive share.
func randomChainState(rng *rand.Rand, tun *tunnel.Set, flows []tunnel.Flow, scale float64) *State {
	st := NewState()
	for _, f := range flows {
		alloc := make([]float64, len(tun.Tunnels(f)))
		for i := range alloc {
			if rng.Intn(3) > 0 {
				alloc[i] = rng.Float64()
			}
		}
		alloc[rng.Intn(len(alloc))] += 0.1
		st.Rate[f], st.Alloc[f] = scale*rng.Float64(), alloc
	}
	return st
}

// staleOverload enumerates every set of at most kc stale ingresses and
// every history configuration each is stuck on, and describes the first
// link overload it finds ("" if none).
func staleOverload(net *topology.Network, tun *tunnel.Set, flows []tunnel.Flow, history []*State, next *State, kc int) string {
	// send returns, per link, what ingress v sends with config's weights
	// and rates' rates.
	send := func(v topology.SwitchID, config, rates *State) []float64 {
		out := make([]float64, len(net.Links))
		for _, f := range flows {
			if f.Src != v {
				continue
			}
			w := tunnel.Weights(config.Alloc[f])
			for _, tn := range tun.Tunnels(f) {
				for _, l := range tn.Links {
					out[l] += rates.Rate[f] * w[tn.Index]
				}
			}
		}
		return out
	}
	var srcs []topology.SwitchID
	for _, f := range flows {
		if !slices.Contains(srcs, f.Src) {
			srcs = append(srcs, f.Src)
		}
	}
	cur := history[len(history)-1]
	moving := make([][]float64, len(srcs))  // max(cur, next) per link
	stuck := make([][][]float64, len(srcs)) // per history configuration
	for k, v := range srcs {
		moving[k] = send(v, cur, cur)
		for l, x := range send(v, next, next) {
			moving[k][l] = math.Max(moving[k][l], x)
		}
		for _, h := range history {
			stuck[k] = append(stuck[k], send(v, h, next))
		}
	}
	msg := ""
	forEachComboUpTo(len(srcs), kc, func(set []int) {
		configs := make([]int, len(set))
		for msg == "" {
			for l := range net.Links {
				load, stale := 0.0, 0
				for k := range srcs {
					if stale < len(set) && set[stale] == k {
						load += stuck[k][configs[stale]][l]
						stale++
					} else {
						load += moving[k][l]
					}
				}
				if c := net.Links[l].Capacity; load > c+1e-6*math.Max(1, c) {
					msg = fmt.Sprintf("link %d carries %v > %v with ingresses %v stuck on configurations %v", l, load, c, set, configs)
					return
				}
			}
			// Next assignment of history configurations to the stale set.
			i := 0
			for ; i < len(configs) && configs[i] == len(history)-1; i++ {
				configs[i] = 0
			}
			if i == len(configs) {
				return
			}
			configs[i]++
		}
	})
	return msg
}
