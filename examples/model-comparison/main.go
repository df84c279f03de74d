// model-comparison puts the paper's argument on one screen: linear models
// (the prior art), analytic non-linear models (polynomial, logarithmic —
// the paper's §7 future work), the MLP (the paper's contribution), and the
// logarithmic neural network (ref. [23]) all fit the same workload data,
// then are scored on interpolation and on extrapolation outside the
// training range.
//
// Run with: go run ./examples/model-comparison
package main

import (
	"fmt"
	"log"

	"nnwc/internal/core"
	"nnwc/internal/linear"
	"nnwc/internal/nn"
	"nnwc/internal/poly"
	"nnwc/internal/rng"
	"nnwc/internal/stats"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

type entry struct {
	name string
	fit  func(tr *workload.Dataset) (core.Predictor, error)
}

func main() {
	sys := threetier.DefaultSystemParams()
	sys.WarmupTime, sys.MeasureTime = 8, 32

	// Interpolation data: rates 440-560; extrapolation probes: 620-660.
	spec := threetier.SweepSpec{
		InjectionRates: []float64{440, 480, 520, 560},
		MfgThreads:     []int{16},
		WebThreads:     []int{12, 16, 20, 24},
		DefaultThreads: []int{4, 8, 12},
	}
	outSpec := spec
	outSpec.InjectionRates = []float64{620, 660}

	fmt.Println("collecting training and extrapolation datasets...")
	ds, err := threetier.Collect(spec, sys, 31)
	if err != nil {
		log.Fatal(err)
	}
	outDS, err := threetier.Collect(outSpec, sys, 32)
	if err != nil {
		log.Fatal(err)
	}

	mlp := core.Config{Hidden: []int{16}, Seed: 2}
	lnnCfg := mlp
	lnnCfg.HiddenActivation = nn.LogCompress{}
	entries := []entry{
		{"linear (prior art)", func(tr *workload.Dataset) (core.Predictor, error) {
			return linear.Fit(tr.Xs(), tr.Ys(), linear.Options{})
		}},
		{"polynomial deg 2", func(tr *workload.Dataset) (core.Predictor, error) {
			return poly.Fit(poly.Polynomial{Degree: 2, Interactions: true}, tr.Xs(), tr.Ys(),
				poly.Options{Lambda: 1e-4, Standardize: true})
		}},
		{"logarithmic", func(tr *workload.Dataset) (core.Predictor, error) {
			return poly.Fit(poly.Logarithmic{}, tr.Xs(), tr.Ys(), poly.Options{})
		}},
		{"MLP (this paper)", func(tr *workload.Dataset) (core.Predictor, error) {
			return core.Fit(tr, mlp)
		}},
		{"log neural net", func(tr *workload.Dataset) (core.Predictor, error) {
			return core.Fit(tr, lnnCfg)
		}},
	}

	// Shuffled 80/20 split for the interpolation score.
	shuffled := ds.Clone()
	shuffled.Shuffle(rng.New(9))
	trainSet, valSet := shuffled.Split(0.8)

	fmt.Printf("\n%-20s %14s %16s\n", "model", "interp. error", "extrap. error")
	for _, e := range entries {
		m, err := e.fit(trainSet)
		if err != nil {
			log.Fatal(err)
		}
		evIn, err := core.Evaluate(m, valSet)
		if err != nil {
			log.Fatal(err)
		}
		evOut, err := core.Evaluate(m, outDS)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s %13.1f%% %15.1f%%\n", e.name,
			stats.MeanSkipNaN(evIn.HMRE)*100, stats.MeanSkipNaN(evOut.HMRE)*100)
	}
	fmt.Println(`
Reading the table like the paper does:
 - the linear model's interpolation error is the §1 motivation: it cannot
   bend around the valleys and hills, so the MLP beats it severalfold;
 - every model suffers out of range (§5.3: "neural network models cannot
   be used for extrapolation"); §7 proposes the logarithmic variants as
   future work, so read their out-of-range column before trusting them.`)
}
