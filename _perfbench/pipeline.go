package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/mat"
	"nnwc/internal/obs"
	"nnwc/internal/recommend"
	"nnwc/internal/rng"
	"nnwc/internal/surface"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// endToEnd builds the metrics every workload reports with tracing off.
// ops are the measured operations in ms, in the order they ran: campaigns,
// or requests timed from their due time. Open loops pass the window their
// median is taken over (see windowed); closed loops pass 0. Tail
// percentiles are printed, not reported: on a 2-CPU container the p90 at
// 200 req/s swung with the load on the host, to an IQR of 0.39 of its
// median over ten seeds.
func endToEnd(setup, ops []float64, window int, accuracy, heapMB float64) (metrics, error) {
	p50 := median(ops)
	if window > 0 {
		p50 = windowed(ops, window, 0.5)
	}
	m := metrics{}
	for _, err := range []error{
		m.set("setup_s", "s", median(setup)),
		m.set("op_p50_ms", "ms", p50),
		m.set("cv_accuracy", "ratio", accuracy),
		m.set("peak_heap_mb", "MB", heapMB),
	} {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

func since(t time.Time) float64 { return ms(time.Since(t)) }

// closedLoop runs op back to back until d has elapsed, at least min times,
// and returns each operation's duration in ms and the times the
// operations started, followed by the time the last one ended.
func closedLoop(d time.Duration, minOps int, op func() error) ([]float64, []time.Time, error) {
	var ops []float64
	var edges []time.Time
	start := time.Now()
	for len(ops) < minOps || time.Since(start) < d {
		t := time.Now()
		if err := op(); err != nil {
			return nil, nil, err
		}
		ops = append(ops, since(t))
		edges = append(edges, t)
	}
	return ops, append(edges, time.Now()), nil
}

// ---- reproduce-quick ----

// campaignRun is one `cmd/experiments -quick -run
// table2,fig4,fig7,fig8,recommend` campaign.
type campaignRun struct {
	Total, Collect, Report time.Duration
	Accuracy               float64
	Outputs                string // hash over every artifact written
	Dataset                *workload.Dataset
}

// campaign builds a fresh quick context and runs the stage chain. The
// dataset, CV and full model are computed first, each in its own span,
// so the runners' span is their self time once the caches are warm.
func campaign(e *env, parent int64) (campaignRun, error) {
	dir, err := os.MkdirTemp(e.tmp, "campaign")
	if err != nil {
		return campaignRun{}, err
	}
	defer os.RemoveAll(dir)
	c := quickContext(dir, e.seed, e.nproc)

	var r campaignRun
	var cvTime, fitTime time.Duration // kept in their spans only
	steps := []struct {
		name string
		d    *time.Duration
		fn   func() error
	}{
		{"threetier.collect", &r.Collect, func() error { _, err := c.Dataset(); return err }},
		{"core.crossval", &cvTime, func() error { _, err := c.CrossValidation(); return err }},
		{"core.fit", &fitTime, func() error { _, err := c.FullModel(); return err }},
		{"experiments.report", &r.Report, func() error {
			for _, run := range []func() error{c.RunTable2, c.RunFig4, c.RunFig7, c.RunFig8, c.RunRecommend} {
				if err := run(); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	err = timedSpan(e, "experiments.campaign", parent, &r.Total, func(root int64) error {
		for _, s := range steps {
			if err := timedSpan(e, s.name, root, s.d, func(int64) error { return s.fn() }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return r, err
	}
	cv, err := c.CrossValidation()
	if err != nil {
		return r, err
	}
	r.Accuracy = cv.OverallAccuracy()
	r.Dataset, _ = c.Dataset()
	r.Outputs, err = dirSHA(dir)
	return r, err
}

// dirSHA hashes every file in dir, in name order.
func dirSHA(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	names := make([]string, 0, len(entries))
	for _, en := range entries {
		names = append(names, en.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", n, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runReproduce: closed loop, one campaign after another. Set-up is one
// warm-up campaign, whose artifacts every measured campaign must repeat
// byte for byte.
func runReproduce(e *env, g gateResult) (outcome, error) {
	t := time.Now()
	warm, err := campaign(e, 0)
	if err != nil {
		return outcome{}, err
	}
	setup := []float64{since(t) / 1000}

	var out outcome
	var collect []float64
	heap := startHeapSampler()
	ops, edges, err := closedLoop(e.seconds, 3, func() error {
		r, err := campaign(e, 0)
		if err != nil {
			return err
		}
		out.Tally.record(r.Outputs == warm.Outputs)
		collect = append(collect, ms(r.Collect))
		return nil
	})
	samples := heap.samples()
	if err != nil {
		return outcome{}, err
	}
	out.Metrics, err = endToEnd(setup, ops, 0, warm.Accuracy, peakHeapMB(samples, edges))
	fmt.Fprintf(e.out, "reproduce_s %.4f over %d campaigns (collect %.4f s); cv_accuracy %.4f\n",
		median(ops)/1000, len(ops), median(collect)/1000, warm.Accuracy)
	return out, err
}

// ---- training rounds ----

// trainer holds the paper model and the round's fixed inputs.
type trainer struct {
	ds                 *workload.Dataset
	cfg                core.Config
	cvSeed, searchSeed uint64
	slices             []surface.Slice
	space              recommend.Space
	scorer             recommend.Scorer
}

// newTrainer sets up rounds over ds with the paper model (Hidden {16},
// default RPROP), the Fig 4/7/8 slices at (560, x, 16, y) and the SLA
// recommendation of `experiments -run recommend`, over sweep's ranges.
// cvSeed shuffles the folds; searchSeed drives the search's probes.
func newTrainer(ds *workload.Dataset, sweep threetier.SweepSpec, cvSeed, searchSeed uint64) *trainer {
	lo := func(xs []int) float64 { return float64(slices.Min(xs)) }
	hi := func(xs []int) float64 { return float64(slices.Max(xs)) }
	t := &trainer{ds: ds, cfg: core.Config{Hidden: []int{16}, Seed: 1}, cvSeed: cvSeed, searchSeed: searchSeed}
	for _, out := range []int{0, 1, 4} { // mfg RT, purchase RT, effective throughput
		t.slices = append(t.slices, surface.Slice{
			Fixed:   []float64{560, 0, 16, 0},
			XIndex:  1,
			YIndex:  3,
			XValues: surface.Linspace(lo(sweep.DefaultThreads), hi(sweep.DefaultThreads), 12),
			YValues: surface.Linspace(lo(sweep.WebThreads), hi(sweep.WebThreads), 13),
			Output:  out,
		})
	}
	t.space = recommend.Space{
		Lo:      []float64{560, lo(sweep.DefaultThreads), lo(sweep.MfgThreads), lo(sweep.WebThreads)},
		Hi:      []float64{560, hi(sweep.DefaultThreads), hi(sweep.MfgThreads), hi(sweep.WebThreads)},
		Integer: []bool{false, true, true, true},
	}
	t.scorer = recommend.SLAScore(4, []float64{140, 80, 60, 65, math.Inf(1)})
	return t
}

// roundRun is one training round's timings and result fingerprint.
type roundRun struct {
	Total, CV, Fit, Search time.Duration
	Grids                  []time.Duration
	Fingerprint            string // over CV averages, grids and the recommendation
	Model                  *core.NNModel
	Averages               []float64
}

// round runs 5-fold CV, a full fit, the three surface grids and one
// recommendation search, each in its own span.
func (t *trainer) round(e *env) (r roundRun, err error) {
	err = timedSpan(e, "bench.round", 0, &r.Total, func(root int64) error {
		return t.roundSteps(e, root, &r)
	})
	return r, err
}

func (t *trainer) roundSteps(e *env, root int64, r *roundRun) error {
	fp := sha256.New()
	put := func(xs ...float64) {
		for _, x := range xs {
			binary.Write(fp, binary.LittleEndian, math.Float64bits(x))
		}
	}

	var cv *core.CVResult
	err := timedSpan(e, "core.crossval", root, &r.CV, func(int64) (err error) {
		cv, err = core.CrossValidateWorkers(t.ds, t.cfg, 5, t.cvSeed, e.nproc)
		return err
	})
	if err != nil {
		return err
	}
	r.Averages = cv.Averages
	put(cv.Averages...)
	if err := timedSpan(e, "core.fit", root, &r.Fit, func(int64) (err error) {
		r.Model, err = core.Fit(t.ds, t.cfg)
		return err
	}); err != nil {
		return err
	}
	for _, sl := range t.slices {
		var d time.Duration
		if err := timedSpan(e, "surface.grid", root, &d, func(int64) error {
			g, err := surface.EvaluateWorkers(r.Model, sl, r.Model.InputDim(), r.Model.OutputDim(), e.nproc)
			if err == nil {
				for _, row := range g.Z {
					put(row...)
				}
			}
			return err
		}); err != nil {
			return err
		}
		r.Grids = append(r.Grids, d)
	}
	if err := timedSpan(e, "recommend.search", root, &r.Search, func(int64) error {
		res, err := recommend.Search(r.Model, t.space, t.scorer, recommend.Options{Seed: t.searchSeed})
		if err == nil {
			put(res.Best.X...)
			put(res.Best.Y...)
		}
		return err
	}); err != nil {
		return err
	}
	r.Fingerprint = hex.EncodeToString(fp.Sum(nil))
	return nil
}

// timedSpan runs fn inside a span, passing it the span's ID, and stores
// its wall time in d.
func timedSpan(e *env, name string, parent int64, d *time.Duration, fn func(id int64) error) error {
	t := time.Now()
	err := e.rec.around(name, parent, fn)
	*d = time.Since(t)
	return err
}

// collectPaperGrid collects threetier.DefaultSweep (648 configurations)
// with the quick simulation windows at the paper seed.
func collectPaperGrid() (*workload.Dataset, threetier.SweepSpec, error) {
	q := quickContext("", paperSeed, 0)
	sweep := threetier.DefaultSweep()
	ds, err := threetier.Collect(sweep, q.Sys, paperSeed)
	return ds, sweep, err
}

// paperTrainer trains on the paper grid with the paper's CV seed, as
// `cmd/experiments -run table2` does; the run seed drives only the search.
func paperTrainer(ds *workload.Dataset, sweep threetier.SweepSpec, seed uint64) *trainer {
	return newTrainer(ds, sweep, paperSeed+1, seed+9)
}

// ---- per-layer parts of the traced run ----

// layerCampaign measures the quick campaign's layers: collection share,
// the simulator replayed run by run, and the runners' self time.
func layerCampaign(e *env, m metrics) error {
	untraced := *e
	untraced.rec = nil
	base, err := campaign(&untraced, 0)
	if err != nil {
		return err
	}
	r, err := campaign(e, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace overhead, campaign: traced %.4f s - untraced %.4f s = %+.4f s\n",
		r.Total.Seconds(), base.Total.Seconds(), (r.Total - base.Total).Seconds())
	if r.Outputs != base.Outputs {
		return fmt.Errorf("traced campaign wrote different artifacts than the untraced one")
	}

	runMs, allocs, txnPerS, err := replayCollect(e, r.Dataset)
	if err != nil {
		return err
	}
	return setAll(m,
		kv{"threetier.collect_s", "s", r.Collect.Seconds()},
		kv{"threetier.collect_share", "ratio", r.Collect.Seconds() / r.Total.Seconds()},
		kv{"experiments.campaign_s", "s", r.Total.Seconds()},
		kv{"experiments.report_s", "s", r.Report.Seconds()},
		kv{"threetier.run_ms", "ms", runMs},
		kv{"threetier.allocs_per_run", "count", allocs},
		kv{"threetier.txn_per_s", "1/s", txnPerS},
	)
}

// replayCollect replays threetier.Collect for the quick sweep one
// simulator run at a time, timing each and counting its allocations and
// measured transactions, and checks that every run's indicators equal
// the collected dataset's bit for bit.
func replayCollect(e *env, ds *workload.Dataset) (runMs, allocs, txnPerS float64, err error) {
	q := quickContext("", e.seed, 0)
	configs := q.Sweep.Configs()
	if q.Sweep.Replicates != 1 || len(configs) != ds.Len() {
		return 0, 0, 0, fmt.Errorf("replay expects one replicate per configuration")
	}
	master := rng.New(e.seed)
	var runs, mallocs []float64
	var txn float64
	var busy time.Duration
	var before, after runtime.MemStats
	for i, cfg := range configs {
		sim, err := threetier.NewSimulator(cfg, q.Sys, master.Split())
		if err != nil {
			return 0, 0, 0, err
		}
		id := e.rec.begin("threetier.run", 0, int64(i+1))
		runtime.ReadMemStats(&before)
		t := time.Now()
		met, err := sim.Run()
		d := time.Since(t)
		runtime.ReadMemStats(&after)
		e.rec.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
		if !sameBits(met.Indicators(), ds.Samples[i].Y) {
			return 0, 0, 0, fmt.Errorf("replayed run %d differs from the collected dataset", i)
		}
		busy += d
		runs = append(runs, ms(d))
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs))
		for c := range met.Completed {
			txn += float64(met.Completed[c] + met.Rejected[c] + met.Censored[c])
		}
	}
	return median(runs), median(mallocs), txn / busy.Seconds(), nil
}

// layerTraining measures the training layers of tr: one untraced and one
// traced round, then CV at one worker, CV with program tracing on, the
// allocations of one fit and matrix prediction throughput.
func layerTraining(e *env, tr *trainer, m metrics) error {
	ds := tr.ds
	untraced := *e
	untraced.rec = nil
	base, err := tr.round(&untraced)
	if err != nil {
		return err
	}
	r, err := tr.round(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(e.out, "trace overhead, training round: traced %.4f s - untraced %.4f s = %+.4f s\n",
		r.Total.Seconds(), base.Total.Seconds(), (r.Total - base.Total).Seconds())
	if r.Fingerprint != base.Fingerprint {
		return fmt.Errorf("traced round differs from the untraced one")
	}

	var serial time.Duration
	var cv1 *core.CVResult
	if err := timedSpan(e, "core.crossval_serial", 0, &serial, func(int64) (err error) {
		cv1, err = core.CrossValidateWorkers(ds, tr.cfg, 5, tr.cvSeed, 1)
		return err
	}); err != nil {
		return err
	}
	if !sameBits(cv1.Averages, r.Averages) {
		return fmt.Errorf("CV at 1 worker differs from CV at %d workers", e.nproc)
	}

	traced := tr.cfg
	traced.Trace = obs.NewTrace(obs.NewWriterSink(io.Discard))
	var withTrace time.Duration
	if err := timedSpan(e, "core.crossval_traced", 0, &withTrace, func(int64) error {
		_, err := core.CrossValidateWorkers(ds, traced, 5, tr.cvSeed, e.nproc)
		return err
	}); err != nil {
		return err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := core.Fit(ds, tr.cfg); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)

	rowsPerS := predictThroughput(e, r.Model, ds)
	grids := make([]float64, len(r.Grids))
	for i, d := range r.Grids {
		grids[i] = ms(d)
	}
	return setAll(m,
		kv{"core.crossval_s", "s", r.CV.Seconds()},
		kv{"core.fit_s", "s", r.Fit.Seconds()},
		kv{"core.allocs_per_fit", "count", float64(after.Mallocs - before.Mallocs)},
		kv{"sched.cv_speedup", "x", serial.Seconds() / r.CV.Seconds()},
		kv{"surface.grid_ms", "ms", median(grids)},
		kv{"recommend.search_ms", "ms", ms(r.Search)},
		kv{"core.predict_rows_per_s", "1/s", rowsPerS},
		kv{"obs.trace_overhead", "x", withTrace.Seconds() / r.CV.Seconds()},
	)
}

// predictThroughput runs PredictMatrix over the whole dataset for about a
// fifth of a second and returns rows predicted per second.
func predictThroughput(e *env, model *core.NNModel, ds *workload.Dataset) float64 {
	X := mat.FromRows(ds.Xs())
	w := &core.PredictWorkspace{}
	id := e.rec.begin("core.predict_matrix", 0, 0)
	defer e.rec.end(id)
	start := time.Now()
	rows := 0
	for time.Since(start) < 200*time.Millisecond {
		model.PredictMatrix(X, w)
		rows += X.Rows
	}
	return float64(rows) / time.Since(start).Seconds()
}

// kv is one metric to set.
type kv struct {
	name, unit string
	v          float64
}

func setAll(m metrics, kvs ...kv) error {
	for _, x := range kvs {
		if err := m.set(x.name, x.unit, x.v); err != nil {
			return err
		}
	}
	return nil
}
