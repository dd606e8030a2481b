// Command benchmark is the repository's benchmark: Table 2 solve chains on
// L-Net and S-Net, a warm re-solve chain under demand drift, and a live
// cmd/ffcd under demand and link churn, each reporting the same four
// end-to-end metrics, and from a traced run the per-layer ones. README.md
// has the glossary and the reasons; BENCHMARK.json at the root of the
// repository is the contract with the driver. Run it through run.sh, which
// builds it and the daemon:
//
//	bash benchmark/run.sh --seed 1                    every workload, then its traced run
//	bash benchmark/run.sh --workload snet-drift --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --repeat 2                  the repeatability check
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and end with its result line (default: all of them, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "measure for at least this long, in whole laps")
		trace    = flag.Int("trace", 0, "with -workload: 1 makes the traced run and reports the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run this many sets of 3 runs of every workload and compare the sets against the bounds")
		ffcd     = flag.String("ffcd", "", "path of the cmd/ffcd binary the ffcd-churn workload drives (run.sh builds it)")
		dir      = flag.String("dir", "benchmark", "the benchmark's own directory; generated inputs and traces go to its out/")
		chain    = flag.Int("chain", 0, "with -workload: timed intervals per lap, instead of the workload's own (README.md: long lnet-table2 chains fail)")
		golden   = flag.Bool("update-golden", false, "write the total granted rates of this seed to golden/ instead of checking them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	b := &bench{seed: *seed, seconds: *seconds, ffcd: *ffcd, outDir: filepath.Join(*dir, "out")}
	var err error
	if !*golden {
		if b.golden, err = loadGolden(*seed); err != nil {
			fail(err)
		}
	}
	switch {
	case *workload != "":
		sp := findWorkload(*workload)
		if sp == nil {
			fail(fmt.Errorf("unknown workload %q", *workload))
		}
		if *chain > 0 {
			// Another count makes other inputs (the calibration samples the
			// series by its length), so the golden totals do not apply.
			sp.timed, b.golden = *chain, nil
		}
		var res *result
		if res, err = b.run(sp, *trace == 1, *seconds); err == nil {
			res.print(os.Stdout)
			err = res.printLine(os.Stdout)
		}
	case *repeat > 0:
		err = b.repeat(*repeat)
	default:
		err = b.all(*golden, *dir)
	}
	if err != nil {
		fail(err)
	}
}

// fail reports a harness error. Failed operations are counted in the
// result, not reported here.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// bench holds what every run of one invocation shares: the seed of every
// input, the default run length, the daemon binary, where generated inputs
// and traces go, and the golden totals to check against (nil: none).
type bench struct {
	seed         int64
	seconds      float64
	ffcd, outDir string
	golden       goldenTotals
}

// all is the one command: every workload with tracing off, then a shorter
// traced run of each for the per-layer numbers. With updateGolden it stops
// after the first pass and writes that pass's totals as the seed's golden.
func (b *bench) all(updateGolden bool, dir string) error {
	totals := goldenTotals{}
	for _, trace := range []bool{false, true} {
		seconds := b.seconds
		if trace {
			seconds /= 2
		}
		for i := range workloads {
			res, err := b.run(&workloads[i], trace, seconds)
			if err != nil {
				return err
			}
			res.print(os.Stdout)
			totals[res.spec.name] = res.totals[res.spec.name]
		}
		if updateGolden {
			return totals.write(dir, b.seed)
		}
	}
	return nil
}
