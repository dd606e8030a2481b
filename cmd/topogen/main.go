// Command topogen emits topologies and demand files in the JSON formats
// cmd/ffcte consumes.
//
//	topogen -kind lnet -sites 8 -seed 1 -out net.json -demands d.json
//	topogen -kind snet -out snet.json
//	topogen -kind testbed -out tb.json
//	topogen -kind example4 -out ex.json
//	topogen -kind fattree -arity 4 -out ft.json
//	topogen -kind graphml -in Abilene.graphml -out abilene.json
//
// When -demands is given, a gravity-model demand matrix for one TE interval
// is written alongside the topology (scaled so plain TE satisfies ~99% of
// it, the paper's traffic scale 1.0, adjustable with -scale).
//
// Topology and demand generation draw from independent sub-streams of
// -seed, so the same seed yields the same topology bytes with or without
// -demands, and the same demands regardless of how much randomness the
// topology generator consumed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"ffc/internal/core"
	"ffc/internal/demand"
	"ffc/internal/faults"
	"ffc/internal/obs"
	"ffc/internal/topology"
	"ffc/internal/tunnel"
	"ffc/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "topogen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "lnet", "topology kind: lnet, snet, testbed, example4, fattree, graphml")
		sites   = fs.Int("sites", 8, "sites for lnet")
		arity   = fs.Int("arity", 4, "fat-tree arity (even)")
		inPath  = fs.String("in", "", "GraphML input file (for -kind graphml)")
		linkCap = fs.Float64("capacity", 10, "default link capacity (fattree/graphml)")
		seed    = fs.Int64("seed", 1, "random seed")
		outPath = fs.String("out", "", "topology output file (default stdout)")
		demPath = fs.String("demands", "", "also write a calibrated demand file here")
		scale   = fs.Float64("scale", 1.0, "traffic scale relative to the 99%-satisfied point")
		stats   = fs.Bool("stats", false, "print calibration-solver counters to stderr (with -demands)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *stats {
		obs.Enable()
	}

	topoRng := rand.New(rand.NewSource(faults.DeriveSeed(*seed, 0)))
	var net *topology.Network
	switch *kind {
	case "lnet":
		net = topology.LNet(topology.LNetConfig{Sites: *sites}, topoRng)
	case "snet":
		net = topology.SNet()
	case "testbed":
		net = topology.Testbed()
	case "example4":
		net = topology.Example4()
	case "fattree":
		net = topology.FatTree(*arity, *linkCap)
	case "graphml":
		if *inPath == "" {
			return fmt.Errorf("-kind graphml requires -in <file>")
		}
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		net, err = topology.ParseGraphML(f, *linkCap)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if err := writeJSON(*outPath, net, stdout, stderr); err != nil {
		return err
	}

	if *demPath != "" {
		demRng := rand.New(rand.NewSource(faults.DeriveSeed(*seed, 1)))
		series := demand.Generate(net, demand.Config{Intervals: 3}, demRng)
		flows := series.Flows()
		set := tunnel.Layout(net, flows, tunnel.LayoutConfig{})
		solver := core.NewSolver(net, set, core.Options{MiceFraction: 0.01})
		k, err := core.CalibrateScale(solver, series, 0.99, 2)
		if err != nil {
			return fmt.Errorf("calibrating: %w", err)
		}
		if err := writeJSON(*demPath, wire.EncodeDemands(net, series[0].Scale(k**scale)), stdout, stderr); err != nil {
			return err
		}
	}

	if *stats {
		obs.Default().WriteText(stderr)
	}
	return nil
}

func writeJSON(path string, v interface{}, stdout, stderr io.Writer) error {
	w := stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	if path != "" {
		fmt.Fprintf(stderr, "wrote %s\n", path)
	}
	return nil
}
