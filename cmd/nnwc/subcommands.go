package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"nnwc/internal/core"
	"nnwc/internal/dist/jobs"
	"nnwc/internal/obs"
	"nnwc/internal/plot"
	"nnwc/internal/recommend"
	"nnwc/internal/rng"
	"nnwc/internal/sched"
	"nnwc/internal/surface"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// workersFlag registers -workers on subcommands with parallel phases
// (fold training, family sweeps, grid evaluation). The value bounds the
// deterministic scheduler's concurrency; results never depend on it.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", runtime.GOMAXPROCS(0), "max concurrent workers for parallel phases (results are identical at any setting)")
}

// parseFloats parses "a,b,c" into floats ("inf" allowed).
func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if strings.EqualFold(p, "inf") {
			out = append(out, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	fs, err := parseFloats(s)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = int(f)
	}
	return out, nil
}

// parseRange parses "lo:hi:n" into n evenly spaced values.
func parseRange(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("range %q must be lo:hi:n", s)
	}
	lo, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return nil, err
	}
	hi, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(parts[2])
	if err != nil {
		return nil, err
	}
	return surface.Linspace(lo, hi, n), nil
}

func loadDataset(path string) (*workload.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadCSV(f)
}

// writeFile creates path and fills it through write, then closes it. It
// returns the first error of those steps, so a result file whose write or
// close failed is never reported as written.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadModel(path string) (*core.NNModel, error) {
	return core.LoadModelFile(path)
}

// fmtPct renders a fractional error as a percentage, or "n/a" when the
// metric is undefined (NaN) — an undefined indicator must be visible, not
// reported as 0% error.
func fmtPct(e float64, width, prec int) string {
	if math.IsNaN(e) {
		return fmt.Sprintf("%*s", width+1, "n/a")
	}
	return fmt.Sprintf("%*.*f%%", width, prec, e*100)
}

// warnUndefined prints which indicators an evaluation skipped, if any.
func warnUndefined(undefined []string) {
	if len(undefined) > 0 {
		fmt.Printf("note: HMRE undefined for %s (e.g. all-zero actuals); skipped in averages\n",
			strings.Join(undefined, ", "))
	}
}

// modelConfig delegates to the jobs package so the local CLI path and a
// distributed worker derive identical configs from identical flag values.
func modelConfig(hidden string, epochs int, seed uint64) (core.Config, error) {
	return jobs.ModelConfig(hidden, epochs, seed)
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	out := fs.String("out", "data.csv", "output CSV path")
	seed := fs.Uint64("seed", 2006, "simulation seed")
	rates := fs.String("rates", "480,560,640", "injection rates")
	mfg := fs.String("mfg", "8,16,24", "mfg thread counts")
	web := fs.String("web", "8,12,14,16,18,20,24", "web thread counts")
	def := fs.String("default", "2,4,6,8,12,16", "default thread counts")
	reps := fs.Int("replicates", 1, "replicates per configuration")
	warm := fs.Float64("warmup", 20, "simulated warm-up seconds")
	window := fs.Float64("window", 80, "simulated measurement seconds")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		spec := threetier.SweepSpec{Replicates: *reps}
		var err error
		if spec.InjectionRates, err = parseFloats(*rates); err != nil {
			return err
		}
		if spec.MfgThreads, err = parseInts(*mfg); err != nil {
			return err
		}
		if spec.WebThreads, err = parseInts(*web); err != nil {
			return err
		}
		if spec.DefaultThreads, err = parseInts(*def); err != nil {
			return err
		}
		sys := threetier.DefaultSystemParams()
		sys.WarmupTime, sys.MeasureTime = *warm, *window

		obsf.setSeed(*seed)
		obsf.setConfig("configurations", spec.Size())
		obsf.setConfig("replicates", *reps)
		obsf.infof("running %d configurations × %d replicates...\n", spec.Size(), *reps)
		ds, err := threetier.Collect(spec, sys, *seed)
		if err != nil {
			return err
		}
		if err := writeFile(*out, ds.WriteCSV); err != nil {
			return err
		}
		obsf.metric("samples", float64(ds.Len()))
		fmt.Printf("wrote %d samples to %s\n", ds.Len(), *out)
		// The artifact exists now; fingerprint it for the manifest.
		obsf.setDataset(*out)
		return nil
	}())
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "data.csv", "training CSV")
	modelPath := fs.String("model", "model.json", "output model path")
	hidden := fs.String("hidden", "16", "hidden layer sizes, comma separated")
	epochs := fs.Int("epochs", 2000, "max training epochs")
	seed := fs.Uint64("seed", 1, "weight-init seed")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		ds, err := loadDataset(*data)
		if err != nil {
			return err
		}
		obsf.setDataset(*data)
		obsf.setSeed(*seed)
		obsf.setConfig("hidden", *hidden)
		obsf.setConfig("epochs", *epochs)
		cfg, err := modelConfig(*hidden, *epochs, *seed)
		if err != nil {
			return err
		}
		cfg.Trace = obsf.trace()
		model, err := core.Fit(ds, cfg)
		if err != nil {
			return err
		}
		if err := model.SaveFile(*modelPath); err != nil {
			return err
		}
		obsf.addModel("trained", 0, *modelPath)
		ev, err := core.Evaluate(model, ds)
		if err != nil {
			return err
		}
		obsf.metric("final_loss", model.TrainResult.FinalLoss)
		obsf.metric("epochs", float64(model.TrainResult.Epochs))
		obsf.infof("trained on %d samples: %d epochs, stop=%s, train loss %.4g\n",
			ds.Len(), model.TrainResult.Epochs, model.TrainResult.Reason, model.TrainResult.FinalLoss)
		fmt.Printf("training-set error (HMRE) per indicator:\n")
		for j, name := range ev.TargetNames {
			fmt.Printf("  %-24s %s\n", name, fmtPct(ev.HMRE[j], 1, 2))
		}
		warnUndefined(ev.Undefined())
		fmt.Printf("model saved to %s\n", *modelPath)
		return nil
	}())
}

func cmdCrossval(args []string) error {
	fs := flag.NewFlagSet("crossval", flag.ExitOnError)
	data := fs.String("data", "data.csv", "sample CSV")
	k := fs.Int("k", 5, "number of folds")
	hidden := fs.String("hidden", "16", "hidden layer sizes")
	epochs := fs.Int("epochs", 2000, "max training epochs")
	seed := fs.Uint64("seed", 99, "shuffle/init seed")
	workers := workersFlag(fs)
	df := addDistFlags(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := df.validate(); err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		if df.isWorker() {
			return df.runWorker(obsf, *workers)
		}
		obsf.setDataset(*data)
		obsf.setSeed(*seed)
		obsf.setWorkers(sched.Workers(*workers))
		obsf.setConfig("hidden", *hidden)
		obsf.setConfig("epochs", *epochs)
		obsf.setConfig("k", *k)
		var cv *core.CVResult
		if df.isCoordinator() {
			ctx, cancel := signalContext()
			defer cancel()
			var err error
			cv, _, err = jobs.CoordinateCrossval(ctx, df.options(obsf), *data, *k, *hidden, *epochs, *seed)
			if err != nil {
				return err
			}
		} else {
			ds, err := loadDataset(*data)
			if err != nil {
				return err
			}
			cfg, err := modelConfig(*hidden, *epochs, *seed)
			if err != nil {
				return err
			}
			cfg.Trace = obsf.trace()
			cv, err = core.CrossValidateWorkers(ds, cfg, *k, *seed, *workers)
			if err != nil {
				return err
			}
		}
		obsf.metric("overall_error", cv.OverallError())
		printCVResult(cv)
		return nil
	}())
}

// printCVResult renders the Table 2 trial/average grid — one printer for
// the local and distributed paths, whose CVResults are bit-identical.
func printCVResult(cv *core.CVResult) {
	fmt.Printf("%-8s", "trial")
	for _, n := range cv.TargetNames {
		fmt.Printf(" %22s", n)
	}
	fmt.Println()
	undefined := map[string]bool{}
	for i, tr := range cv.Trials {
		fmt.Printf("%-8d", i+1)
		for j, e := range tr.Errors {
			fmt.Printf(" %s", fmtPct(e, 21, 1))
			if math.IsNaN(e) {
				undefined[cv.TargetNames[j]] = true
			}
		}
		fmt.Println()
	}
	fmt.Printf("%-8s", "average")
	for _, e := range cv.Averages {
		fmt.Printf(" %s", fmtPct(e, 21, 1))
	}
	if math.IsNaN(cv.OverallAccuracy()) {
		fmt.Printf("\noverall prediction accuracy: n/a (no indicator has a defined error)\n")
	} else {
		fmt.Printf("\noverall prediction accuracy: %.1f%%\n", cv.OverallAccuracy()*100)
	}
	if len(undefined) > 0 {
		names := make([]string, 0, len(undefined))
		for n := range undefined {
			names = append(names, n)
		}
		sort.Strings(names)
		warnUndefined(names)
	}
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	xStr := fs.String("x", "", "configuration vector, comma separated")
	fs.Parse(args)

	model, err := loadModel(*modelPath)
	if err != nil {
		return err
	}
	x, err := parseFloats(*xStr)
	if err != nil {
		return err
	}
	if len(x) != model.InputDim() {
		return fmt.Errorf("model expects %d features (%s), got %d",
			model.InputDim(), strings.Join(model.FeatureNames, ","), len(x))
	}
	y := model.Predict(x)
	for j, name := range model.TargetNames {
		fmt.Printf("%-24s %.3f\n", name, y[j])
	}
	return nil
}

func cmdSurface(args []string) error {
	fs := flag.NewFlagSet("surface", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	output := fs.Int("output", 4, "indicator index to plot")
	fixed := fs.String("fixed", "560,0,16,0", "fixed configuration template")
	xi := fs.Int("xi", 1, "swept feature index (x axis)")
	yi := fs.Int("yi", 3, "swept feature index (y axis)")
	xr := fs.String("xrange", "2:16:8", "x grid lo:hi:n")
	yr := fs.String("yrange", "8:24:9", "y grid lo:hi:n")
	csvOut := fs.String("csv", "", "optional CSV output path")
	workers := workersFlag(fs)
	df := addDistFlags(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := df.validate(); err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		if df.isWorker() {
			return df.runWorker(obsf, *workers)
		}
		model, err := loadModel(*modelPath)
		if err != nil {
			return err
		}
		obsf.setWorkers(sched.Workers(*workers))
		obsf.setConfig("model", *modelPath)
		obsf.setConfig("output", *output)
		fixedVec, err := parseFloats(*fixed)
		if err != nil {
			return err
		}
		xs, err := parseRange(*xr)
		if err != nil {
			return err
		}
		ys, err := parseRange(*yr)
		if err != nil {
			return err
		}
		sl := surface.Slice{Fixed: fixedVec, XIndex: *xi, YIndex: *yi, XValues: xs, YValues: ys, Output: *output}
		var grid *surface.Grid
		if df.isCoordinator() {
			ctx, cancel := signalContext()
			defer cancel()
			grid, _, err = jobs.CoordinateSurface(ctx, df.options(obsf), *modelPath, sl)
		} else {
			grid, err = surface.EvaluateTraced(model, sl, model.InputDim(), model.OutputDim(), *workers, obsf.trace())
		}
		if err != nil {
			return err
		}
		hm := plot.HeatMap{
			Title:   fmt.Sprintf("%s over (%s, %s)", model.TargetNames[*output], model.FeatureNames[*xi], model.FeatureNames[*yi]),
			XLabel:  model.FeatureNames[*xi],
			YLabel:  model.FeatureNames[*yi],
			XValues: xs,
			YValues: ys,
			Z:       grid.Z,
		}
		if err := hm.Render(os.Stdout); err != nil {
			return err
		}
		a := surface.Classify(grid)
		fmt.Printf("shape: %s — %s\n", a.Shape, a.Advice)
		if *csvOut != "" {
			return writeFile(*csvOut, func(w io.Writer) error {
				return plot.WriteSurfaceCSV(w, xs, ys, grid.Z)
			})
		}
		return nil
	}())
}

func cmdRecommend(args []string) error {
	fs := flag.NewFlagSet("recommend", flag.ExitOnError)
	modelPath := fs.String("model", "model.json", "model path")
	maximize := fs.Int("maximize", 4, "indicator index to maximize")
	boundsStr := fs.String("bounds", "140,80,60,65,inf", "per-indicator upper bounds ('inf' to skip)")
	lo := fs.String("lo", "560,2,8,8", "space lower bounds")
	hi := fs.String("hi", "560,16,24,24", "space upper bounds")
	seed := fs.Uint64("seed", 7, "search seed")
	pareto := fs.Bool("pareto", false, "report the Pareto front over (min response times, max throughput) instead of one SLA optimum")
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(cmdRecommendRun(obsf, *modelPath, *maximize, *boundsStr, *lo, *hi, *seed, *pareto))
}

func cmdRecommendRun(obsf *obsFlags, modelPath string, maximizeV int, boundsStr, lo, hi string, seedV uint64, paretoV bool) error {
	maximize, seed, pareto := &maximizeV, &seedV, &paretoV
	model, err := loadModel(modelPath)
	if err != nil {
		return err
	}
	obsf.setSeed(*seed)
	obsf.setConfig("model", modelPath)
	obsf.setConfig("maximize", *maximize)
	bounds, err := parseFloats(boundsStr)
	if err != nil {
		return err
	}
	loV, err := parseFloats(lo)
	if err != nil {
		return err
	}
	hiV, err := parseFloats(hi)
	if err != nil {
		return err
	}
	integers := make([]bool, len(loV))
	for i, name := range model.FeatureNames {
		integers[i] = strings.Contains(name, "threads")
	}
	space := recommend.Space{Lo: loV, Hi: hiV, Integer: integers}
	if *pareto {
		objs := make([]recommend.Objective, model.OutputDim())
		for j := range objs {
			if j == *maximize {
				objs[j] = recommend.Maximize
			} else {
				objs[j] = recommend.Minimize
			}
		}
		front, err := recommend.ParetoFront(model, space, objs, recommend.Options{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Printf("Pareto front (%d non-dominated configurations):\n", len(front))
		limit := len(front)
		if limit > 20 {
			limit = 20
		}
		for _, cand := range front[:limit] {
			fmt.Printf(" x=%v →", cand.X)
			for j, name := range model.TargetNames {
				fmt.Printf(" %s=%.1f", name, cand.Y[j])
			}
			fmt.Println()
		}
		if len(front) > limit {
			fmt.Printf(" ... and %d more\n", len(front)-limit)
		}
		return nil
	}
	res, err := recommend.Search(model, space, recommend.SLAScore(*maximize, bounds), recommend.Options{Seed: *seed})
	if err != nil {
		return err
	}
	obsf.metric("best_score", res.Best.Score)
	fmt.Printf("best configuration (score %.3f):\n", res.Best.Score)
	for i, name := range model.FeatureNames {
		fmt.Printf("  %-20s %g\n", name, res.Best.X[i])
	}
	fmt.Println("predicted indicators:")
	for j, name := range model.TargetNames {
		fmt.Printf("  %-24s %.3f\n", name, res.Best.Y[j])
	}
	return nil
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	data := fs.String("data", "data.csv", "sample CSV")
	k := fs.Int("k", 5, "folds")
	hidden := fs.String("hidden", "16", "MLP hidden sizes")
	epochs := fs.Int("epochs", 2000, "MLP training epochs")
	seed := fs.Uint64("seed", 99, "seed")
	workers := workersFlag(fs)
	df := addDistFlags(fs)
	obsf := addObsFlags(fs)
	fs.Parse(args)
	if err := df.validate(); err != nil {
		return err
	}
	sched.SetWorkers(*workers)
	if err := obsf.start(args); err != nil {
		return err
	}
	return obsf.finish(func() error {
		if df.isWorker() {
			return df.runWorker(obsf, *workers)
		}
		if df.isCoordinator() {
			obsf.setDataset(*data)
			obsf.setSeed(*seed)
			obsf.setConfig("k", *k)
			ctx, cancel := signalContext()
			defer cancel()
			means, _, err := jobs.CoordinateCompare(ctx, df.options(obsf), *data, *k, *hidden, *epochs, *seed)
			if err != nil {
				return err
			}
			printFamilyMeans(obsf, means)
			return nil
		}
		return cmdCompareRun(obsf, *data, *k, *hidden, *epochs, *seed, *workers)
	}())
}

// printFamilyMeans renders the §4 family table and records its metrics —
// one printer for the local and distributed comparison paths.
func printFamilyMeans(obsf *obsFlags, means []jobs.FamilyMean) {
	fmt.Printf("%-12s %12s\n", "model", "mean HMRE")
	for _, fm := range means {
		fmt.Printf("%-12s %11.2f%%\n", fm.Name, fm.Mean*100)
		obsf.metric("hmre_"+fm.Name, fm.Mean)
	}
}

func cmdCompareRun(obsf *obsFlags, data string, k int, hidden string, epochs int, seed uint64, workers int) error {
	ds, err := loadDataset(data)
	if err != nil {
		return err
	}
	obsf.setDataset(data)
	obsf.setSeed(seed)
	obsf.setWorkers(sched.Workers(workers))
	obsf.setConfig("k", k)
	fams, err := jobs.CompareFamilies(hidden, epochs)
	if err != nil {
		return err
	}

	shuffled := ds.Clone()
	shuffled.Shuffle(rng.New(seed))
	folds, err := shuffled.KFold(k)
	if err != nil {
		return err
	}
	// Every (family, fold) cell fits independently; fan the grid out and
	// reduce each family's folds in ascending order afterwards. Cell spans
	// buffer per index and replay in order, keeping the trace deterministic.
	fork := obsf.trace().Fork(len(fams) * k)
	cells, err := sched.MapWorker(workers, len(fams)*k, func(idx, w int) (float64, error) {
		fi, f := idx/k, idx%k
		slot := fork.Slot(idx)
		span := slot.StartSpan("compare-cell", idx, w)
		defer span.End()
		mean, err := jobs.CompareCell(shuffled, folds, fams, k, seed, idx)
		if err != nil {
			return 0, err
		}
		if slot.Enabled() {
			slot.Emit("compare_cell",
				obs.String("family", fams[fi].Name),
				obs.Int("fold", f),
				obs.Float("mean_hmre", mean),
			)
		}
		return mean, nil
	})
	fork.Join()
	if err != nil {
		return err
	}
	means := make([]jobs.FamilyMean, len(fams))
	for fi, fm := range fams {
		var errSum float64
		for f := 0; f < k; f++ {
			errSum += cells[fi*k+f]
		}
		means[fi] = jobs.FamilyMean{Name: fm.Name, Mean: errSum / float64(k)}
	}
	printFamilyMeans(obsf, means)
	return nil
}
