package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"nnwc/internal/doe"
	"nnwc/internal/threetier"
)

// parseBound parses "lo:hi" into two floats.
func parseBound(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ":")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bound %q must be lo:hi", s)
	}
	if lo, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// cmdDoegen generates a dataset from a space-filling experiment design
// instead of a rectangular sweep — often far more sample-efficient (see
// `cmd/experiments -run sampling`).
func cmdDoegen(args []string) error {
	fs := flag.NewFlagSet("doegen", flag.ExitOnError)
	out := fs.String("out", "data.csv", "output CSV path")
	design := fs.String("design", "lhs", "experiment design: lhs | random | factorial")
	n := fs.Int("n", 64, "sample budget (levels^4 for factorial)")
	levels := fs.Int("levels", 3, "levels per dimension (factorial only)")
	seed := fs.Uint64("seed", 2006, "design + simulation seed")
	rate := fs.String("rate", "440:640", "injection-rate range lo:hi")
	def := fs.String("default", "2:24", "default-thread range lo:hi")
	mfg := fs.String("mfg", "8:24", "mfg-thread range lo:hi")
	web := fs.String("web", "8:32", "web-thread range lo:hi")
	warm := fs.Float64("warmup", 20, "simulated warm-up seconds")
	window := fs.Float64("window", 80, "simulated measurement seconds")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(cmdDoegenRun(obsf, *out, *design, *n, *levels, *seed, *rate, *def, *mfg, *web, *warm, *window))
}

func cmdDoegenRun(obsf *obsFlags, out, design string, n, levels int, seed uint64, rate, def, mfg, web string, warm, window float64) error {
	var d doe.Design
	switch design {
	case "lhs":
		d = doe.LatinHypercube{Seed: seed}
	case "random":
		d = doe.UniformRandom{Seed: seed}
	case "factorial":
		d = doe.FullFactorial{Levels: levels}
	default:
		return fmt.Errorf("unknown design %q (want lhs, random, or factorial)", design)
	}

	dims := make([]doe.Dimension, 4)
	for i, spec := range []struct {
		name    string
		bound   string
		integer bool
	}{
		{"injection_rate", rate, false},
		{"default_threads", def, true},
		{"mfg_threads", mfg, true},
		{"web_threads", web, true},
	} {
		lo, hi, err := parseBound(spec.bound)
		if err != nil {
			return fmt.Errorf("parsing -%s: %w", strings.SplitN(spec.name, "_", 2)[0], err)
		}
		dims[i] = doe.Dimension{Name: spec.name, Lo: lo, Hi: hi, Integer: spec.integer}
	}

	points, err := d.Points(n, len(dims))
	if err != nil {
		return err
	}
	scaled, err := doe.Scale(points, dims)
	if err != nil {
		return err
	}
	configs := make([]threetier.Config, len(scaled))
	for i, row := range scaled {
		cfg, err := threetier.ConfigFromVector(row)
		if err != nil {
			return err
		}
		configs[i] = cfg
	}

	sys := threetier.DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = warm, window
	obsf.setSeed(seed)
	obsf.setConfig("design", d.Name())
	obsf.setConfig("configurations", len(configs))
	obsf.infof("running %d %s-designed configurations...\n", len(configs), d.Name())
	ds, err := threetier.CollectConfigs(configs, 1, sys, seed+1)
	if err != nil {
		return err
	}
	if err := writeFile(out, ds.WriteCSV); err != nil {
		return err
	}
	obsf.metric("samples", float64(ds.Len()))
	fmt.Printf("wrote %d samples to %s\n", ds.Len(), out)
	obsf.setDataset(out)
	return nil
}
