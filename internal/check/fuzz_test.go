package check

// FuzzCheckPlan throws arbitrary plan bytes at the certifier over small
// random topologies, exercising both production entry points: the
// ffccheck offline pipeline (parse a recorded state file, rebuild the
// tunnel set from its paths, certify) and direct certification of a
// byte-driven state that need not be solver-consistent. The certifier
// must never panic, its case accounting must stay coherent, the
// certificate must equal, bitwise, the one the oracle evaluator
// (oracle_test.go) produces, and no probe drawn from the bytes may move it.

import (
	"encoding/json"
	"math/rand"
	"testing"

	"ffc/internal/core"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

func FuzzCheckPlan(f *testing.F) {
	f.Add([]byte(`{"flows":[]}`), uint16(1), uint8(1), uint8(1), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 200, 10, 255, 17}, uint16(7), uint8(0), uint8(2), uint8(1))
	f.Add([]byte(`{"flows":[{"src":"sa","dst":"sb","rate":1e9,"tunnels":[{"path":["sa","sb"],"alloc":1e9}]}]}`),
		uint16(2), uint8(2), uint8(2), uint8(1))
	// A well-formed recorded plan seeds the wire path.
	{
		rng := rand.New(rand.NewSource(3))
		net, set, flows := randomNet(rng, 6, 4)
		dem := map[tunnel.Flow]float64{}
		st := randomState(rng, set, flows, 0.3)
		for _, fl := range flows {
			dem[fl] = st.Rate[fl]
		}
		blob, err := json.Marshal(wire.EncodeState(net, set, dem, st))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, uint16(3), uint8(1), uint8(1), uint8(1))
	}
	// An unsaturated multi-flow plan on the net seed 14 draws, at (0,2,1):
	// its walk runs on a pruned index.
	{
		net, set, flows := randomNet(rand.New(rand.NewSource(14)), 7, 4)
		st := randomState(rand.New(rand.NewSource(14)), set, flows, 0)
		dem := map[tunnel.Flow]float64{}
		for _, fl := range flows {
			st.Rate[fl] *= 0.3
			dem[fl] = st.Rate[fl]
		}
		c, err := prepare(net, set, st, st, Params{Prot: core.Protection{Ke: 2, Kv: 1}})
		if err != nil {
			f.Fatal(err)
		}
		if kept := c.exactData().linksKept; kept >= len(net.Links) {
			f.Fatalf("pruning seed keeps all %d links", kept)
		}
		blob, err := json.Marshal(wire.EncodeState(net, set, dem, st))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob, uint16(14), uint8(0), uint8(2), uint8(1))
	}

	f.Fuzz(func(t *testing.T, data []byte, netSeed uint16, kc, ke, kv uint8) {
		prot := core.Protection{Kc: int(kc % 3), Ke: int(ke % 3), Kv: int(kv % 2)}
		rng := rand.New(rand.NewSource(int64(netSeed)))
		net, set, flows := randomNet(rng, 3+int(netSeed%5), 2+int(netSeed%4))

		// Path 1: the ffccheck offline pipeline on the raw bytes.
		var sf wire.StateFile
		if json.Unmarshal(data, &sf) == nil {
			if rset, err := wire.TunnelSetFromState(net, &sf); err == nil {
				if rst, err := wire.ResolveState(net, rset, &sf); err == nil {
					requireCoherent(t, net, rset, rst, rst, prot, data)
				}
			}
		}

		// Path 2: a byte-driven direct state, including rates no solver
		// would emit.
		if len(data) == 0 {
			return
		}
		i := 0
		next := func() float64 {
			v := float64(data[i%len(data)])
			i++
			return v / 8
		}
		st, prev := core.NewState(), core.NewState()
		for _, fl := range flows {
			n := len(set.Tunnels(fl))
			a := make([]float64, n)
			pa := make([]float64, n)
			var sum, psum float64
			for j := range a {
				a[j] = next()
				sum += a[j]
				pa[j] = next()
				psum += pa[j]
			}
			st.Alloc[fl], st.Rate[fl] = a, sum*next()/8
			prev.Alloc[fl], prev.Rate[fl] = pa, psum
		}
		requireCoherent(t, net, set, st, prev, prot, data)
	})
}

// requireCoherent certifies one plan against the oracle, checks the
// accounting invariants, and repeats the certification with probes drawn
// from data.
func requireCoherent(t *testing.T, net *topology.Network, set *tunnel.Set, st, prev *core.State, prot core.Protection, data []byte) {
	t.Helper()
	c := requireOracleEqual(t, "certify", net, set, st, prev, Params{Prot: prot})
	i := 0
	requireProbeInvariant(t, "fuzz", net, set, st, prev, Params{Prot: prot}, func(n int) int {
		if len(data) == 0 {
			return 0
		}
		i++
		return int(data[(i-1)%len(data)]) % n
	})
	if !c.Exact {
		t.Fatal("a non-exact certificate")
	}
	if c.CasesCovered < c.CasesChecked {
		t.Fatalf("covered %d < checked %d", c.CasesCovered, c.CasesChecked)
	}
	if c.OK != (c.Violation == nil) {
		t.Fatalf("OK=%v but violation=%+v", c.OK, c.Violation)
	}
	if !c.OK {
		v := c.Violation
		if v.Over <= 0 || v.Load <= v.Capacity {
			t.Fatalf("violation without overload: %+v", v)
		}
	}
}
