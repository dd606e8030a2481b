package sim

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ffc/internal/core"
	"ffc/internal/metrics"
)

// setProcs pins GOMAXPROCS, which sizes the harness's worker pools, for
// the rest of the test. Tests that call it must not run in parallel.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

func TestOversubDataFaultsParallelMatchesSerial(t *testing.T) {
	sc := testScenario(t, 20, 8, 1.0)
	setProcs(t, 1)
	serial, err := OversubDataFaults(sc, core.None, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		setProcs(t, w)
		par, err := OversubDataFaults(sc, core.None, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: distribution differs from serial\nserial CDF %v\nparallel CDF %v",
				w, serial.CDF(0), par.CDF(0))
		}
	}
}

func TestOversubControlFaultsParallelMatchesSerial(t *testing.T) {
	sc := testScenario(t, 21, 8, 1.0)
	setProcs(t, 1)
	serial, err := OversubControlFaults(sc, core.None, 2)
	if err != nil {
		t.Fatal(err)
	}
	setProcs(t, 8)
	par, err := OversubControlFaults(sc, core.None, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("distribution differs from serial\nserial CDF %v\nparallel CDF %v",
			serial.CDF(0), par.CDF(0))
	}
}

func TestRunManyMatchesIndividualRuns(t *testing.T) {
	sc := testScenario(t, 22, 6, 1.0)
	sc.Failures.LinkMTBF = 10 * time.Minute
	cfgs := []RunConfig{
		{},
		{Prot: core.Protection{Kc: 2, Ke: 1}},
	}
	setProcs(t, 1)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := Run(sc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	setProcs(t, 4)
	got, err := RunMany(sc, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		// SolveTime is wall-clock and never repeats; blank it before the
		// deep comparison.
		want[i].SolveTime, got[i].SolveTime = metrics.Dist{}, metrics.Dist{}
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("config %d: RunMany result differs from individual Run\nwant %+v\ngot %+v", i, want[i], got[i])
		}
	}
}
