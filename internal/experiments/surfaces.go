package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/plot"
	"nnwc/internal/stats"
	"nnwc/internal/surface"
	"nnwc/internal/threetier"
)

// Feature indices in the paper's configuration tuple
// (injection rate, default queue, mfg queue, web queue).
const (
	featRate = iota
	featDefault
	featMfg
	featWeb
)

// Indicator indices in the paper's output tuple.
const (
	indMfgRT = iota
	indPurchaseRT
	indManageRT
	indBrowseRT
	indThroughput
)

// RunFig4 regenerates Figure 4 (parallel slopes): the manufacturing
// response time over the (default queue, web queue) plane at the paper's
// slice (560, x, 16, y). The default queue should be near-irrelevant while
// the web queue drives the indicator.
func (c *Context) RunFig4() error {
	return c.runSurface("Figure 4", "fig4_parallel_slopes", indMfgRT,
		"expected shape: parallel slopes — the default queue barely moves manufacturing response time")
}

// RunFig7 regenerates Figure 7 (valleys): the dealer purchase response
// time over the same slice; a trench of minima where both pools are
// adequately (but not excessively) provisioned.
func (c *Context) RunFig7() error {
	return c.runSurface("Figure 7", "fig7_valley", indPurchaseRT,
		"expected shape: valley — minima along an interior trench; staying in it needs both parameters moved together")
}

// RunFig8 regenerates Figure 8 (hills): effective throughput over the same
// slice; the optimum is an interior crest that one-at-a-time tuning misses.
func (c *Context) RunFig8() error {
	return c.runSurface("Figure 8", "fig8_hill", indThroughput,
		"expected shape: hill — throughput peaks at an interior (default, web) combination")
}

// sliceGrid builds the paper's (560, x, 16, y) slice over the trained
// region: X sweeps the default queue, Y the web queue.
func (c *Context) sliceGrid(output int) surface.Slice {
	defLo := float64(minInt(c.Sweep.DefaultThreads))
	defHi := float64(maxInt(c.Sweep.DefaultThreads))
	webLo := float64(minInt(c.Sweep.WebThreads))
	webHi := float64(maxInt(c.Sweep.WebThreads))
	return surface.Slice{
		Fixed:   []float64{560, 0, 16, 0},
		XIndex:  featDefault,
		YIndex:  featWeb,
		XValues: surface.Linspace(defLo, defHi, 12),
		YValues: surface.Linspace(webLo, webHi, 13),
		Output:  output,
	}
}

func (c *Context) runSurface(title, artifact string, output int, expectation string) error {
	model, err := c.FullModel()
	if err != nil {
		return err
	}
	sl := c.sliceGrid(output)
	grid, err := surface.EvaluateWorkers(model, sl, model.InputDim(), model.OutputDim(), c.Workers)
	if err != nil {
		return err
	}
	analysis := surface.Classify(grid)

	indicator := model.TargetNames[output]
	c.printf("%s — predicted %s over (default queue, web queue) at (rate=560, mfg=16)\n", title, indicator)
	hm := plot.HeatMap{
		Title:   fmt.Sprintf("%s: %s (x=default threads, y=web threads)", title, indicator),
		XLabel:  "default threads",
		YLabel:  "web",
		XValues: sl.XValues,
		YValues: sl.YValues,
		Z:       grid.Z,
	}
	if err := hm.Render(c.Out); err != nil {
		return err
	}
	lo, lx, ly := grid.Min()
	hi, hx, hy := grid.Max()
	c.printf("  min %.4g at (default=%.3g, web=%.3g); max %.4g at (default=%.3g, web=%.3g)\n",
		lo, lx, ly, hi, hx, hy)
	c.printf("  classification: %s (x-effect %.2f, y-effect %.2f)\n", analysis.Shape, analysis.XEffect, analysis.YEffect)
	c.printf("  advice: %s\n", analysis.Advice)
	c.printf("  %s\n", expectation)
	if analysis.Shape == surface.ShapeValley {
		// The §5.2 trench, stated the way the paper states it: the
		// coordinates the two parameters must trace together.
		path := surface.ExtremalPath(grid, true, false) // per web row, best default
		first, last := 0, len(path.X)-1
		c.printf("  valley floor runs from (default=%.3g, web=%.3g) to (default=%.3g, web=%.3g), depth %.4g→%.4g\n",
			path.X[first], path.Y[first], path.X[last], path.Y[last], path.Z[first], path.Z[last])
	}

	// Overlay the paper's "dots": ground truth from the simulator at a
	// coarse subgrid, to report how far the surface sits from reality.
	// Each probe's seed derives from its grid coordinates, so the three
	// figures share their probe runs through the context's ground-truth
	// cache, and the predictions go through one batch.
	var keys []truthKey
	var probes [][]float64
	for _, dv := range subsample(sl.XValues, 3) {
		for _, wv := range subsample(sl.YValues, 3) {
			cfg := threetier.Config{
				InjectionRate:  sl.Fixed[featRate],
				DefaultThreads: int(dv + 0.5),
				MfgThreads:     int(sl.Fixed[featMfg] + 0.5),
				WebThreads:     int(wv + 0.5),
			}
			keys = append(keys, truthKey{cfg, c.Seed + uint64(dv*100+wv)})
			probes = append(probes, cfg.Vector())
		}
	}
	truth, err := c.groundTruth(keys)
	if err != nil {
		return err
	}
	actual := make([]float64, len(truth))
	for i, ind := range truth {
		actual[i] = ind[output]
	}
	var predicted []float64
	for _, out := range core.PredictAll(model, probes) {
		predicted = append(predicted, out[output])
	}
	dev := stats.MAPE(actual, predicted)
	c.printf("  model vs fresh simulation at 9 probe points: mean |rel.err| %.1f%%\n\n", dev*100)

	return c.writeArtifact(artifact+".csv", func(w io.Writer) error {
		return plot.WriteSurfaceCSV(w, sl.XValues, sl.YValues, grid.Z)
	})
}

// subsample picks k approximately evenly spaced values from vs.
func subsample(vs []float64, k int) []float64 {
	if k >= len(vs) {
		return vs
	}
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		idx := i * (len(vs) - 1) / (k - 1)
		out = append(out, vs[idx])
	}
	return out
}

func minInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
