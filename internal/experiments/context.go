// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) against the simulated three-tier workload: Table 2
// (k-fold cross-validation errors), Figure 2 (sigmoid family), Figures 5/6
// (actual vs predicted for training and validation sets), Figures 4/7/8
// (parallel-slope, valley and hill response surfaces), plus the two
// claim-level experiments DESIGN.md calls out — the linear-baseline
// comparison (§1/§6) and the extrapolation limitation with the logarithmic
// network remedy (§5.3/§7).
//
// Each Run* method writes a human-readable report to the context's writer
// and machine-readable CSV artifacts into the output directory.
package experiments

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nnwc/internal/core"
	"nnwc/internal/obs"
	"nnwc/internal/sched"
	"nnwc/internal/threetier"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// quickTrain is a reduced-epoch training budget for tests and benchmarks.
func quickTrain() *train.Config {
	tc := train.DefaultConfig()
	tc.MaxEpochs = 400
	return &tc
}

// Context carries the shared state of an experiment run: the sample
// campaign, the model configuration, deterministic seeds, and caches so
// that the expensive dataset collection and cross-validation happen once
// even when several experiments run back to back.
type Context struct {
	Out    io.Writer
	OutDir string

	Seed  uint64
	Sys   threetier.SystemParams
	Sweep threetier.SweepSpec
	Model core.Config
	Folds int

	// Workers bounds the parallelism of the experiment fan-outs: CV
	// folds, sweep cells, model families, surface probes (<= 0 means the
	// scheduler default). Seeds derive from task indices, so reports and
	// artifacts are bit-identical at every setting. Sample collection
	// (threetier.Collect) does not see this field: it fans out on the
	// process-wide default that sched.SetWorkers sets.
	Workers int

	// Trace receives structured run events from the experiments and the
	// model fits underneath them. nil disables tracing; results are
	// identical either way.
	Trace *obs.Trace

	dataset *workload.Dataset
	cv      *core.CVResult
	full    *core.NNModel
	truth   map[truthKey][]float64 // simulated indicators; see groundTruth
}

// truthKey names one ground-truth simulation. Like the other caches, its
// result depends only on the key: the configuration and the seed.
type truthKey struct {
	cfg  threetier.Config
	seed uint64
}

// New returns a Context with the experiment defaults: the full sweep, the
// paper-style MLP (one hidden layer, logistic activation), and 5-fold CV.
func New(out io.Writer, outDir string) *Context {
	return &Context{
		Out:    out,
		OutDir: outDir,
		Seed:   2006, // the paper's year; any constant works
		Sys:    threetier.DefaultSystemParams(),
		Sweep:  threetier.DefaultSweep(),
		Model: core.Config{
			Hidden: []int{16},
			Seed:   1,
		},
		Folds: 5,
	}
}

// NewQuick returns a Context scaled down for tests and benchmarks: a small
// sweep and short simulation windows. The statistics are noisier but every
// code path is identical.
func NewQuick(out io.Writer, outDir string) *Context {
	c := New(out, outDir)
	c.Sys.WarmupTime = 4
	c.Sys.MeasureTime = 16
	c.Sweep = threetier.SweepSpec{
		InjectionRates: []float64{480, 560},
		MfgThreads:     []int{8, 16},
		WebThreads:     []int{10, 14, 18, 22},
		DefaultThreads: []int{2, 6, 10},
		Replicates:     1,
	}
	c.Model.Train = quickTrain()
	return c
}

// Dataset collects (or returns the cached) sample set.
func (c *Context) Dataset() (*workload.Dataset, error) {
	if c.dataset == nil {
		ds, err := threetier.Collect(c.Sweep, c.Sys, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: collecting dataset: %w", err)
		}
		c.dataset = ds
	}
	return c.dataset, nil
}

// groundTruth returns the simulated indicators of each key, in request
// order. Keys the context has not simulated yet run concurrently on the
// context's workers, once each even when a request repeats them; every
// later request for them is a cache hit. Figures 4, 7 and 8 probe the
// same runs and differ only in the indicator they read.
func (c *Context) groundTruth(keys []truthKey) ([][]float64, error) {
	if c.truth == nil {
		c.truth = make(map[truthKey][]float64)
	}
	var missing []truthKey
	queued := make(map[truthKey]bool)
	for _, k := range keys {
		if _, ok := c.truth[k]; !ok && !queued[k] {
			queued[k] = true
			missing = append(missing, k)
		}
	}
	ran, err := sched.Map(c.workers(), len(missing), func(i int) ([]float64, error) {
		m, err := threetier.Run(missing[i].cfg, c.Sys, missing[i].seed)
		if err != nil {
			return nil, err
		}
		return m.Indicators(), nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range missing {
		c.truth[k] = ran[i]
	}
	out := make([][]float64, len(keys))
	for i, k := range keys {
		out[i] = c.truth[k]
	}
	return out, nil
}

// workers resolves the context's parallelism bound.
func (c *Context) workers() int { return sched.Workers(c.Workers) }

// CrossValidation runs (or returns the cached) k-fold CV with the folds
// trained concurrently.
func (c *Context) CrossValidation() (*core.CVResult, error) {
	if c.cv == nil {
		ds, err := c.Dataset()
		if err != nil {
			return nil, err
		}
		cfg := c.Model
		cfg.Trace = c.Trace
		cv, err := core.CrossValidateWorkers(ds, cfg, c.Folds, c.Seed+1, c.Workers)
		if err != nil {
			return nil, err
		}
		c.cv = cv
	}
	return c.cv, nil
}

// FullModel trains (or returns the cached) model on the entire dataset,
// the model the surface analyses use.
func (c *Context) FullModel() (*core.NNModel, error) {
	if c.full == nil {
		ds, err := c.Dataset()
		if err != nil {
			return nil, err
		}
		cfg := c.Model
		cfg.Trace = c.Trace
		m, err := core.Fit(ds, cfg)
		if err != nil {
			return nil, err
		}
		c.full = m
	}
	return c.full, nil
}

// writeArtifact creates OutDir/name, creating the directory as needed,
// fills it through a buffer with write, then flushes and closes it. It
// returns the first error of those steps, so a failed write, flush or
// close is never mistaken for a committed artifact. write need not check
// its own writes: the buffer keeps the first write error and Flush
// returns it.
func (c *Context) writeArtifact(name string, write func(w io.Writer) error) error {
	if err := os.MkdirAll(c.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.OutDir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (c *Context) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Runner names one experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(*Context) error
}

// All lists every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1: simulated environment summary", (*Context).RunTable1},
		{"fig2", "Figure 2: sigmoid activation family", (*Context).RunFig2},
		{"table2", "Table 2: 5-fold cross-validation errors", (*Context).RunTable2},
		{"fig5", "Figure 5: actual vs predicted, training set", (*Context).RunFig5},
		{"fig6", "Figure 6: actual vs predicted, validation set", (*Context).RunFig6},
		{"fig4", "Figure 4: parallel slopes surface", (*Context).RunFig4},
		{"fig7", "Figure 7: valley surface", (*Context).RunFig7},
		{"fig8", "Figure 8: hill surface", (*Context).RunFig8},
		{"baseline", "Linear/polynomial baseline comparison", (*Context).RunBaseline},
		{"extrapolation", "MLP extrapolation failure and LNN remedy", (*Context).RunExtrapolation},
		{"recommend", "Scoring-function configuration recommendation", (*Context).RunRecommend},
		{"sampling", "Sample-design efficiency (factorial vs random vs LHS)", (*Context).RunSampling},
		{"importance", "Permutation feature importance and partial dependence", (*Context).RunImportance},
		{"nodecount", "Automated hidden-node-count selection (§3.2)", (*Context).RunNodeCount},
		{"ablations", "§3 design-choice ablation report", (*Context).RunAblations},
	}
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
