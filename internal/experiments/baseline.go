package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/linear"
	"nnwc/internal/nn"
	"nnwc/internal/nn/rbf"
	"nnwc/internal/obs"
	"nnwc/internal/poly"
	"nnwc/internal/preprocess"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/stats"
	"nnwc/internal/workload"
)

// fitRBF trains the §2.1 alternative architecture on standardized inputs
// and outputs (the Gaussian units need comparable feature scales just as
// the MLP does).
func fitRBF(tr *workload.Dataset, seed uint64) (core.Predictor, error) {
	xScaler := preprocess.NewStandardizer()
	if err := xScaler.Fit(tr.Xs()); err != nil {
		return nil, err
	}
	yScaler := preprocess.NewStandardizer()
	if err := yScaler.Fit(tr.Ys()); err != nil {
		return nil, err
	}
	net, err := rbf.Fit(
		preprocess.TransformAll(xScaler, tr.Xs()),
		preprocess.TransformAll(yScaler, tr.Ys()),
		rbf.Config{Centers: tr.Len() / 4, WidthScale: 2, Lambda: 1e-6, Seed: seed})
	if err != nil {
		return nil, err
	}
	return scaledPredictor{x: xScaler, y: yScaler, inner: net}, nil
}

// scaledPredictor wraps a predictor trained in standardized space.
type scaledPredictor struct {
	x, y  preprocess.Scaler
	inner core.Predictor
}

// Predict implements core.Predictor.
func (s scaledPredictor) Predict(x []float64) []float64 {
	return s.y.Inverse(s.inner.Predict(s.x.Transform(x)))
}

// family is one model family competing in the baseline comparison.
type family struct {
	name string
	fit  func(train *workload.Dataset, seed uint64) (core.Predictor, error)
}

func (c *Context) families() []family {
	mlpCfg := c.Model
	lnnCfg := c.Model
	lnnCfg.HiddenActivation = nn.LogCompress{}
	return []family{
		{"linear (OLS)", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return linear.Fit(tr.Xs(), tr.Ys(), linear.Options{})
		}},
		{"poly deg2+int", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return poly.Fit(poly.Polynomial{Degree: 2, Interactions: true}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-4, Standardize: true})
		}},
		{"poly deg3+int", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return poly.Fit(poly.Polynomial{Degree: 3, Interactions: true}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-4, Standardize: true})
		}},
		{"log features", func(tr *workload.Dataset, _ uint64) (core.Predictor, error) {
			return poly.Fit(poly.Logarithmic{}, tr.Xs(), tr.Ys(), poly.Options{Lambda: 1e-6, Standardize: false})
		}},
		{"RBF network", func(tr *workload.Dataset, seed uint64) (core.Predictor, error) {
			return fitRBF(tr, seed)
		}},
		{"MLP (paper)", func(tr *workload.Dataset, seed uint64) (core.Predictor, error) {
			cfg := mlpCfg
			cfg.Seed = seed
			return core.Fit(tr, cfg)
		}},
		{"LNN (Hines)", func(tr *workload.Dataset, seed uint64) (core.Predictor, error) {
			cfg := lnnCfg
			cfg.Seed = seed
			return core.Fit(tr, cfg)
		}},
	}
}

// RunBaseline quantifies the paper's core motivation (§1, §6): linear
// models from prior work against the non-linear MLP on identical k-fold
// splits. Expect the MLP to win overall, with the gap widest on the
// indicators shaped by valleys and hills.
func (c *Context) RunBaseline() error {
	ds, err := c.Dataset()
	if err != nil {
		return err
	}
	shuffled := ds.Clone()
	shuffled.Shuffle(rng.New(c.Seed + 1))
	folds, err := shuffled.KFold(c.Folds)
	if err != nil {
		return err
	}

	fams := c.families()
	// Every (fold, family) cell is an independent fit; fan the grid out.
	// Cell seeds depend only on the fold index, and the per-family
	// accumulation below runs serially in the historical (fold, family)
	// order, so the table is bit-identical at any worker count. Cell spans
	// buffer per cell index and replay in cell order for the same reason.
	fork := c.Trace.Fork(c.Folds * len(fams))
	cells, err := sched.MapWorker(c.workers(), c.Folds*len(fams), func(idx, w int) ([]float64, error) {
		f, fi := idx/len(fams), idx%len(fams)
		slot := fork.Slot(idx)
		span := slot.StartSpan("baseline-cell", idx, w)
		defer span.End()
		trainSet, valSet := shuffled.TrainValidation(folds, f)
		model, err := fams[fi].fit(trainSet, c.Seed+uint64(f))
		if err != nil {
			return nil, fmt.Errorf("experiments: baseline %s fold %d: %w", fams[fi].name, f+1, err)
		}
		ev, err := core.Evaluate(model, valSet)
		if err != nil {
			return nil, err
		}
		if slot.Enabled() {
			slot.Emit("baseline_cell",
				obs.Int("fold", f),
				obs.String("family", fams[fi].name),
				obs.Float("mean_hmre", stats.MeanSkipNaN(ev.HMRE)),
			)
		}
		return ev.HMRE, nil
	})
	fork.Join()
	if err != nil {
		return err
	}

	// errs[f][j] accumulates family f's mean error on indicator j.
	errs := make([][]float64, len(fams))
	for i := range errs {
		errs[i] = make([]float64, ds.NumTargets())
	}
	for f := 0; f < c.Folds; f++ {
		for fi := range fams {
			for j, e := range cells[f*len(fams)+fi] {
				errs[fi][j] += e / float64(c.Folds)
			}
		}
	}

	short := shortNames(ds.TargetNames)
	c.printf("Baseline comparison — %d-fold CV harmonic-mean relative error (lower is better)\n", c.Folds)
	c.printf("%-16s", "model")
	for _, n := range short {
		c.printf(" %12s", n)
	}
	c.printf(" %12s\n", "mean")
	for fi, fam := range fams {
		c.printf("%-16s", fam.name)
		for _, e := range errs[fi] {
			c.printf(" %11.1f%%", e*100)
		}
		c.printf(" %11.1f%%\n", stats.Mean(errs[fi])*100)
	}
	var mlpMean, linMean float64
	for fi, fam := range fams {
		switch fam.name {
		case "MLP (paper)":
			mlpMean = stats.Mean(errs[fi])
		case "linear (OLS)":
			linMean = stats.Mean(errs[fi])
		}
	}
	if mlpMean > 0 {
		c.printf("linear/MLP error ratio: %.1fx (the paper's motivation: linear models miss the non-linear structure)\n\n", linMean/mlpMean)
	}

	return c.writeArtifact("baseline.csv", func(w io.Writer) error {
		fmt.Fprintf(w, "model")
		for _, n := range ds.TargetNames {
			fmt.Fprintf(w, ",%s", n)
		}
		fmt.Fprintln(w, ",mean")
		for fi, fam := range fams {
			fmt.Fprintf(w, "%q", fam.name)
			for _, e := range errs[fi] {
				fmt.Fprintf(w, ",%.4f", e)
			}
			fmt.Fprintf(w, ",%.4f\n", stats.Mean(errs[fi]))
		}
		return nil
	})
}
