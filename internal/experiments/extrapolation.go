package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/queueing"
	"nnwc/internal/sched"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// RunExtrapolation demonstrates the §5.3 limitation — "neural network
// models cannot be used for extrapolation ... prediction accuracy of MLPs
// drop rapidly outside the range of training data" — and the §7/[23]
// remedy, the logarithmic neural network.
//
// Part A uses a controlled analytic target (the M/M/c mean response time
// from the queueing substrate) so the ground truth outside the training
// range is exact. Part B repeats the test on the three-tier workload by
// holding out the highest injection rates.
func (c *Context) RunExtrapolation() error {
	if err := c.extrapolationAnalytic(); err != nil {
		return err
	}
	return c.extrapolationWorkload()
}

func (c *Context) extrapolationAnalytic() error {
	const (
		mu      = 30.0 // per-server service rate
		servers = 16
	)
	rt := func(lambda float64) (float64, error) {
		w, err := queueing.MMC{Lambda: lambda, Mu: mu, C: servers}.MeanResponseTime()
		return w * 1000, err // milliseconds
	}

	build := func(lambdas []float64) (*workload.Dataset, error) {
		ds := workload.NewDataset([]string{"lambda"}, []string{"response_ms"})
		for _, l := range lambdas {
			v, err := rt(l)
			if err != nil {
				return nil, err
			}
			ds.MustAppend(workload.Sample{X: []float64{l}, Y: []float64{v}})
		}
		return ds, nil
	}

	var trainL, testL []float64
	for l := 100.0; l <= 380; l += 10 {
		trainL = append(trainL, l)
	}
	for l := 400.0; l <= 450; l += 10 {
		testL = append(testL, l)
	}
	trainDS, err := build(trainL)
	if err != nil {
		return err
	}
	testDS, err := build(testL)
	if err != nil {
		return err
	}

	c.printf("Extrapolation A — analytic M/M/%d response time (train λ∈[100,380], test λ∈[400,450])\n", 16)
	if err := c.extrapolationTable(trainDS, testDS, "extrapolation_analytic.csv",
		"The LNN's low ratio comes from a loose in-range fit: its out-of-range error is among the largest, so neither logarithmic variant degrades most gracefully."); err != nil {
		return err
	}
	return nil
}

func (c *Context) extrapolationWorkload() error {
	// Every thread count takes at least two levels so the OLS baseline's
	// design matrix keeps full rank.
	spec := threetier.SweepSpec{
		InjectionRates: []float64{400, 440, 480, 520, 560},
		MfgThreads:     []int{12, 16},
		WebThreads:     []int{16, 20},
		DefaultThreads: []int{6, 10},
		Replicates:     1,
	}
	testSpec := spec
	testSpec.InjectionRates = []float64{600, 640}

	trainDS, err := threetier.Collect(spec, c.Sys, c.Seed+77)
	if err != nil {
		return err
	}
	testDS, err := threetier.Collect(testSpec, c.Sys, c.Seed+78)
	if err != nil {
		return err
	}
	c.printf("Extrapolation B — three-tier workload (train rate∈[400,560], test rate∈{600,640})\n")
	return c.extrapolationTable(trainDS, testDS, "extrapolation_workload.csv",
		"The logarithmic variants are no remedy here: both degrade more steeply than the cubic polynomial.")
}

// extrapolationTable fits every family on trainDS and reports in-range
// (trainDS) vs out-of-range (testDS) error, then the reading of the table
// that its part adds to the common one. Families fit concurrently;
// printing replays the results in family order, failures first, exactly
// as the serial loop emitted them.
func (c *Context) extrapolationTable(trainDS, testDS *workload.Dataset, artifact, reading string) error {
	type rowOut struct {
		name    string
		failed  bool
		in, out float64
	}
	fams := c.families()
	results, err := sched.Map(c.workers(), len(fams), func(i int) (rowOut, error) {
		model, err := fams[i].fit(trainDS, c.Seed+5)
		if err != nil {
			// Some families cannot fit tiny datasets (e.g. poly3 on a
			// single feature with few rows); report and continue.
			return rowOut{name: fams[i].name, failed: true}, nil
		}
		evIn, err := core.Evaluate(model, trainDS)
		if err != nil {
			return rowOut{}, err
		}
		evOut, err := core.Evaluate(model, testDS)
		if err != nil {
			return rowOut{}, err
		}
		return rowOut{name: fams[i].name, in: evIn.MeanHMRE(), out: evOut.MeanHMRE()}, nil
	})
	if err != nil {
		return err
	}

	c.printf("%-16s %14s %14s %8s\n", "model", "in-range err", "out-range err", "ratio")
	var rows []rowOut
	for _, r := range results {
		if r.failed {
			c.printf("%-16s %14s\n", r.name, "fit failed")
			continue
		}
		rows = append(rows, r)
	}
	for _, r := range rows {
		ratio := 0.0
		if r.in > 0 {
			ratio = r.out / r.in
		}
		c.printf("%-16s %13.1f%% %13.1f%% %7.1fx\n", r.name, r.in*100, r.out*100, ratio)
	}
	c.printf("(reading: every model degrades out of range, and the sigmoid MLP's ratio is among the two steepest, as §5.3 warns. %s)\n\n", reading)

	return c.writeArtifact(artifact, func(w io.Writer) error {
		fmt.Fprintln(w, "model,in_range_error,out_range_error")
		for _, r := range rows {
			fmt.Fprintf(w, "%q,%.4f,%.4f\n", r.name, r.in, r.out)
		}
		return nil
	})
}
