package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"ffc/internal/check"
	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/metrics"
	"ffc/internal/testbed"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
)

// EncodingRow is one row of the encoding ablation.
type EncodingRow struct {
	Encoding  string
	Vars      int
	Cons      int
	SolveTime time.Duration
	Objective float64
}

// AblationEncoding compares the three bounded-M-sum encodings on identical
// FFC inputs: the paper's partial sorting network, the compact top-k dual,
// and — on a reduced network, to keep it finite — the naive per-fault-case
// enumeration whose intractability motivates §4.4. All three must agree on
// the optimum; they differ in LP size and solve time.
func AblationEncoding(e *Env, w io.Writer) ([]EncodingRow, error) {
	series := e.Series.Scale(e.Scale1)
	demands := series[0]
	solverPlain := core.NewSolver(e.Net, e.Tun, core.Options{})
	prev, _, err := solverPlain.Solve(core.Input{Demands: demands})
	if err != nil {
		return nil, err
	}
	in := core.Input{Demands: series[1%len(series)], Prot: core.Protection{Kc: 2, Ke: 1}, Prev: prev}

	var rows []EncodingRow
	for _, enc := range []core.Encoding{core.SortNet, core.Compact} {
		opts := e.Opts
		opts.Encoding = enc
		solver := core.NewSolver(e.Net, e.Tun, opts)
		st, stats, err := solver.Solve(in)
		if err != nil {
			return nil, fmt.Errorf("ablation %v: %w", enc, err)
		}
		rows = append(rows, EncodingRow{enc.String(), stats.Vars, stats.Constraints, stats.SolveTime, st.TotalRate()})
	}
	// Naive at full scale: formulate only. This implementation already
	// prunes dominated fault subsets; the literal Eqn 5/9 enumeration the
	// paper calls intractable is counted analytically alongside it.
	{
		opts := e.Opts
		opts.Encoding = core.Naive
		solver := core.NewSolver(e.Net, e.Tun, opts)
		stats, err := solver.FormulateOnly(in)
		if err != nil {
			return nil, fmt.Errorf("ablation naive formulate: %w", err)
		}
		rows = append(rows, EncodingRow{"naive (pruned, not solved)", stats.Vars, stats.Constraints, 0, 0})
		rows = append(rows, EncodingRow{"naive (literal Eqns 5+9)", 0, literalNaiveRows(e, in.Prot), 0, 0})
	}

	// Naive enumeration on a small sub-environment (it would not finish on
	// the full one — which is the point the paper's Table 2 makes with its
	// ">12 hours" entry).
	smallEnv, err := NewLNet(EnvConfig{Sites: 4, Intervals: 2, Seed: e.Seed, TunnelsPerFlow: 3})
	if err != nil {
		return nil, err
	}
	smallSeries := smallEnv.Series.Scale(smallEnv.Scale1)
	smallPrev, _, err := core.NewSolver(smallEnv.Net, smallEnv.Tun, core.Options{}).Solve(core.Input{Demands: smallSeries[0]})
	if err != nil {
		return nil, err
	}
	smallIn := core.Input{Demands: smallSeries[1], Prot: core.Protection{Kc: 2, Ke: 1}, Prev: smallPrev}
	for _, enc := range []core.Encoding{core.SortNet, core.Compact, core.Naive} {
		opts := core.Options{Encoding: enc}
		solver := core.NewSolver(smallEnv.Net, smallEnv.Tun, opts)
		st, stats, err := solver.Solve(smallIn)
		if err != nil {
			return nil, fmt.Errorf("ablation small %v: %w", enc, err)
		}
		rows = append(rows, EncodingRow{"small/" + enc.String(), stats.Vars, stats.Constraints, stats.SolveTime, st.TotalRate()})
	}

	fmt.Fprintf(w, "## Ablation — bounded M-sum encodings on %s (kc=2, ke=1)\n", e.Name)
	tab := metrics.NewTable("encoding", "vars", "constraints", "solve-time", "objective")
	for _, r := range rows {
		tab.Row(r.Encoding, r.Vars, r.Cons, r.SolveTime.String(), r.Objective)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// literalNaiveRows counts the constraints of the unreduced formulation:
// Eqn 5 has one row per link per subset of up to kc ingress switches, and
// Eqn 9 one row per flow per combination of up to ke links and kv switches
// (network-wide, as written in the paper).
func literalNaiveRows(e *Env, prot core.Protection) int {
	nV := e.Net.NumSwitches()
	phys := len(e.Net.PhysicalLinks())
	cases := func(n, k int) int {
		total := 0
		for j := 1; j <= k; j++ {
			c := 1
			for i := 0; i < j; i++ {
				c = c * (n - i) / (i + 1)
			}
			total += c
		}
		return total
	}
	rows := 0
	if prot.Kc > 0 {
		rows += e.Net.NumLinks() * cases(nV, prot.Kc)
	}
	if prot.Ke > 0 || prot.Kv > 0 {
		perFlow := (1 + cases(phys, prot.Ke)) * (1 + cases(nV, prot.Kv))
		rows += len(e.Tun.All()) * perFlow
	}
	return rows
}

// TunnelRow is one row of the tunnel-layout ablation.
type TunnelRow struct {
	Layout       string
	MeanP, MeanQ float64
	// FFCThroughput under (0, ke=1, 0): the (p,q)-disjoint layout keeps τ
	// high, so it should dominate.
	FFCThroughput float64
	// PlainThroughput without protection (k-shortest can be slightly
	// better here — the trade-off of §4.3).
	PlainThroughput float64
}

// AblationTunnels contrasts the §4.3 (1,3) link-switch-disjoint layout with
// unconstrained k-shortest paths.
func AblationTunnels(e *Env, w io.Writer) ([]TunnelRow, error) {
	flows := e.Series.Flows()
	demands := e.Series.Scale(e.Scale1)[0]

	layouts := []struct {
		name string
		set  *tunnel.Set
	}{
		{"(1,3)-disjoint", e.Tun},
		{"k-shortest", tunnel.LayoutKShortest(e.Net, flows, 6, nil)},
	}
	var rows []TunnelRow
	for _, lay := range layouts {
		var sumP, sumQ float64
		for _, f := range flows {
			p, q := lay.set.PQ(f, nil)
			sumP += float64(p)
			sumQ += float64(q)
		}
		solver := core.NewSolver(e.Net, lay.set, e.Opts)
		ffcSt, _, err := solver.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: 1}})
		if err != nil {
			return nil, err
		}
		plainSt, _, err := solver.Solve(core.Input{Demands: demands})
		if err != nil {
			return nil, err
		}
		rows = append(rows, TunnelRow{
			Layout: lay.name,
			MeanP:  sumP / float64(len(flows)), MeanQ: sumQ / float64(len(flows)),
			FFCThroughput:   ffcSt.TotalRate(),
			PlainThroughput: plainSt.TotalRate(),
		})
	}
	fmt.Fprintf(w, "## Ablation — tunnel layout on %s\n", e.Name)
	tab := metrics.NewTable("layout", "mean-p", "mean-q", "ffc(ke=1)-throughput", "plain-throughput")
	for _, r := range rows {
		tab.Row(r.Layout, r.MeanP, r.MeanQ, r.FFCThroughput, r.PlainThroughput)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}

// Fig11 reproduces the testbed event timelines: the FFC case (no controller
// reaction) and the non-FFC fast/slow update cases after failing link s6–s7.
func Fig11(w io.Writer) error {
	net, tun, ffcSt, plainSt, err := testbed.Fig10Setup()
	if err != nil {
		return err
	}
	e := testbed.New()
	e.Net, e.Tun = net, tun
	s6, _ := e.Net.SwitchByName("s6")
	s7, _ := e.Net.SwitchByName("s7")
	link := e.Net.FindLink(s6, s7)
	if link == topology.None {
		return fmt.Errorf("fig11: testbed link s6–s7 missing")
	}
	rng := rand.New(rand.NewSource(3))

	cases := []struct {
		name   string
		state  *core.State
		update time.Duration
	}{
		{"(a) FFC", ffcSt, 0},
		{"(b) non-FFC, fast update (5ms)", plainSt, 5 * time.Millisecond},
		{"(c) non-FFC, slow update (1s)", plainSt, time.Second},
	}
	fmt.Fprintln(w, "## Fig 11 — testbed event timelines after link s6–s7 fails")
	for _, c := range cases {
		out := e.FailLink(link, c.state, rng, c.update)
		fmt.Fprintf(w, "# %s  (loss duration %v, lost %.4g unit·s, controller reacted: %v)\n",
			c.name, out.LossDuration.Round(time.Millisecond), out.LostBytes, out.ControllerReacted)
		for _, ev := range out.Events {
			fmt.Fprintln(w, " ", ev)
		}
	}
	return nil
}

// Fig2to5 prints the paper's walkthrough numbers (Figures 2–5) computed by
// the solver on the 4-switch example: data-plane FFC spreading and the
// 10/7/4 control-plane admission series.
func Fig2to5(w io.Writer) error {
	net := topology.Example4()
	s1, _ := net.SwitchByName("s1")
	s2, _ := net.SwitchByName("s2")
	s3, _ := net.SwitchByName("s3")
	s4, _ := net.SwitchByName("s4")
	mk := func(f tunnel.Flow, hops ...topology.SwitchID) *tunnel.Tunnel {
		t := &tunnel.Tunnel{Flow: f, Switches: hops}
		for i := 0; i+1 < len(hops); i++ {
			t.Links = append(t.Links, net.FindLink(hops[i], hops[i+1]))
		}
		return t
	}
	f24 := tunnel.Flow{Src: s2, Dst: s4}
	f34 := tunnel.Flow{Src: s3, Dst: s4}
	f14 := tunnel.Flow{Src: s1, Dst: s4}
	tun := tunnel.NewSet(net)
	tun.Add(f24, mk(f24, s2, s4), mk(f24, s2, s1, s4))
	tun.Add(f34, mk(f34, s3, s4), mk(f34, s3, s1, s4))
	tun.Add(f14, mk(f14, s1, s4))
	solver := core.NewSolver(net, tun, core.Options{})

	fmt.Fprintln(w, "## Figs 3/5 — control-plane FFC walkthrough (new flow s1→s4 admission)")
	prev := core.NewState()
	prev.Rate[f24], prev.Alloc[f24] = 10, []float64{7, 3}
	prev.Rate[f34], prev.Alloc[f34] = 10, []float64{7, 3}
	tab := metrics.NewTable("kc", "admitted s1→s4", "paper")
	paper := map[int]float64{0: 10, 1: 7, 2: 4}
	for kc := 0; kc <= 2; kc++ {
		st, _, err := solver.Solve(core.Input{
			Demands: demand.Matrix{f24: 10, f34: 10, f14: 10},
			Prot:    core.Protection{Kc: kc}, Prev: prev,
		})
		if err != nil {
			return err
		}
		tab.Row(kc, st.Rate[f14], paper[kc])
	}
	fmt.Fprint(w, tab.String())

	fmt.Fprintln(w, "## Figs 2/4 — data-plane FFC walkthrough")
	demands := demand.Matrix{f24: 14, f34: 6}
	plain, _, err := solver.Solve(core.Input{Demands: demands})
	if err != nil {
		return err
	}
	ffc, _, err := solver.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: 1}})
	if err != nil {
		return err
	}
	tab2 := metrics.NewTable("approach", "throughput", "1-link-failure safe")
	for _, row := range []struct {
		name string
		st   *core.State
	}{{"non-FFC", plain}, {"FFC ke=1", ffc}} {
		cert, err := check.Certify(net, tun, row.st, row.st, check.Params{Prot: core.Protection{Ke: 1}, Mode: check.Exact})
		if err != nil {
			return fmt.Errorf("certifying the %s plan: %w", row.name, err)
		}
		tab2.Row(row.name, row.st.TotalRate(), cert.OK)
	}
	fmt.Fprint(w, tab2.String())
	return nil
}

// RescalingRow is one row of the rescaling ablation.
type RescalingRow struct {
	Scheme     string
	Throughput float64
}

// AblationRescaling quantifies the "price of proportional rescaling" the
// paper argues is small (§4.4.3, §9): plain TE (ignores failures) versus
// the per-case-optimal scheme of Suchara et al. (arbitrary precomputed
// splits per single-link-failure case — needs switch support) versus FFC
// ke=1 (one configuration, commodity rescaling). FFC ≤ per-case ≤ plain
// always; how close FFC gets to per-case is the interesting number.
func AblationRescaling(e *Env, w io.Writer) ([]RescalingRow, error) {
	demands := e.Series.Scale(e.Scale1)[0]
	solver := core.NewSolver(e.Net, e.Tun, e.Opts)

	plain, _, err := solver.Solve(core.Input{Demands: demands})
	if err != nil {
		return nil, err
	}
	ffcSt, _, err := solver.Solve(core.Input{Demands: demands, Prot: core.Protection{Ke: 1}})
	if err != nil {
		return nil, err
	}
	perCase, _, err := solver.SolvePerCaseOptimal(core.Input{Demands: demands}, core.SingleLinkCases(e.Net))
	if err != nil {
		return nil, err
	}
	rows := []RescalingRow{
		{"plain TE (no protection)", plain.TotalRate()},
		{"per-case optimal (Suchara-style bound)", perCase.TotalRate()},
		{"FFC ke=1 (single config + rescaling)", ffcSt.TotalRate()},
	}
	fmt.Fprintf(w, "## Ablation — price of proportional rescaling on %s (single-link failures)\n", e.Name)
	tab := metrics.NewTable("scheme", "throughput", "fraction-of-per-case")
	for _, r := range rows {
		tab.Row(r.Scheme, r.Throughput, r.Throughput/rows[1].Throughput)
	}
	fmt.Fprint(w, tab.String())
	return rows, nil
}
