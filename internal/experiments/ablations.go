package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/train"
)

// RunAblations quantifies the §3 design choices as a report (the benchmark
// harness measures the same axes with timing; this driver gives the
// quality numbers in one screen): standardization on/off, the loose-fit
// threshold, optimizer choice, joint-vs-split networks, weight decay, and
// ensemble size. Every variant trains on the same 80/20 split of the
// shared dataset.
func (c *Context) RunAblations() error {
	ds, err := c.Dataset()
	if err != nil {
		return err
	}
	shuffled := ds.Clone()
	shuffled.Shuffle(rng.New(c.Seed + 3))
	trainSet, valSet := shuffled.Split(0.8)

	score := func(cfg core.Config) (float64, error) {
		model, err := core.Fit(trainSet, cfg)
		if err != nil {
			return 0, err
		}
		ev, err := core.Evaluate(model, valSet)
		if err != nil {
			return 0, err
		}
		return stats.MeanSkipNaN(ev.HMRE), nil
	}
	base := func() core.Config {
		cfg := c.Model
		cfg.Seed = c.Seed + 4
		return cfg
	}
	tweak := func(mod func(*train.Config)) core.Config {
		cfg := base()
		tc := train.DefaultConfig()
		if cfg.Train != nil {
			tc = *cfg.Train
		}
		mod(&tc)
		cfg.Train = &tc
		return cfg
	}

	type row struct {
		axis, variant string
		cfg           core.Config
	}
	off := false
	rows := []row{
		{"standardize (§3.1)", "on (paper)", base()},
		{"standardize (§3.1)", "off", func() core.Config {
			cfg := base()
			cfg.StandardizeInputs = &off
			cfg.StandardizeOutputs = core.StandardizeNever
			return cfg
		}()},
		{"threshold (§3.3)", "loose 1e-2", tweak(func(t *train.Config) { t.TargetLoss = 1e-2 })},
		{"threshold (§3.3)", "paper 1e-4", tweak(func(t *train.Config) { t.TargetLoss = 1e-4 })},
		{"threshold (§3.3)", "tight 1e-7", tweak(func(t *train.Config) { t.TargetLoss = 1e-7 })},
		{"weight decay", "1e-4", tweak(func(t *train.Config) { t.TargetLoss = 0; t.WeightDecay = 1e-4 })},
		{"optimizer", "rprop (default)", tweak(func(t *train.Config) {})},
		{"optimizer", "sgd online", tweak(func(t *train.Config) {
			t.Optimizer = &train.SGD{LR: 0.01}
			t.Mode = train.Online
		})},
		{"optimizer", "momentum online", tweak(func(t *train.Config) {
			t.Optimizer = &train.Momentum{LR: 0.01, Mu: 0.9}
			t.Mode = train.Online
		})},
		{"optimizer", "adam batch", tweak(func(t *train.Config) { t.Optimizer = train.NewAdam(0.01) })},
		{"hidden nodes (§3.2)", "4", func() core.Config { cfg := base(); cfg.Hidden = []int{4}; return cfg }()},
		{"hidden nodes (§3.2)", "16 (paper-scale)", base()},
		{"hidden nodes (§3.2)", "32", func() core.Config { cfg := base(); cfg.Hidden = []int{32}; return cfg }()},
	}

	// Every variant trains independently; fan them out and report in row
	// order. Seeds are fixed per row up front, so the table is identical
	// at any worker count.
	scores, err := sched.Map(c.workers(), len(rows), func(i int) (float64, error) {
		e, err := score(rows[i].cfg)
		if err != nil {
			return 0, fmt.Errorf("experiments: ablation %s/%s: %w", rows[i].axis, rows[i].variant, err)
		}
		return e, nil
	})
	if err != nil {
		return err
	}
	c.printf("Ablations — validation error (mean HMRE) on a fixed 80/20 split\n")
	c.printf("%-22s %-18s %10s\n", "axis", "variant", "error")
	artifact := [][3]string{}
	for i, r := range rows {
		c.printf("%-22s %-18s %9.1f%%\n", r.axis, r.variant, scores[i]*100)
		artifact = append(artifact, [3]string{r.axis, r.variant, fmt.Sprintf("%.4f", scores[i])})
	}

	// Ensemble-size axis uses the ensemble API rather than plain Fit; the
	// members train concurrently inside FitEnsembleWorkers.
	for _, n := range []int{1, 3, 5} {
		ens, err := core.FitEnsembleWorkers(trainSet, base(), n, c.Workers)
		if err != nil {
			return err
		}
		ev, err := core.Evaluate(ens, valSet)
		if err != nil {
			return err
		}
		e := stats.MeanSkipNaN(ev.HMRE)
		variant := fmt.Sprintf("%d member(s)", n)
		c.printf("%-22s %-18s %9.1f%%\n", "ensemble", variant, e*100)
		artifact = append(artifact, [3]string{"ensemble", variant, fmt.Sprintf("%.4f", e)})
	}
	c.printf("\n")

	return c.writeArtifact("ablations.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "axis,variant,validation_error")
		for _, r := range artifact {
			fmt.Fprintf(w, "%q,%q,%s\n", r[0], r[1], r[2])
		}
		return nil
	})
}
