package experiments

import (
	"fmt"
	"io"

	"nnwc/internal/core"
	"nnwc/internal/sensitivity"
	"nnwc/internal/surface"
)

// RunImportance addresses the §5.3 limitation head on: "it is hard to
// perform a quantitative analysis for a complete understanding of the
// individual contribution of a particular feature to the output". The
// model-agnostic permutation importance quantifies each configuration
// parameter's contribution to each indicator, and partial-dependence
// profiles expose the marginal shapes — recovering some of the analytic
// power the paper traded away, without giving up the MLP's generality.
func (c *Context) RunImportance() error {
	model, err := c.FullModel()
	if err != nil {
		return err
	}
	ds, err := c.Dataset()
	if err != nil {
		return err
	}
	im, err := sensitivity.PermutationImportance(model, ds, sensitivity.Options{Seed: c.Seed + 40, Workers: c.Workers})
	if err != nil {
		return err
	}

	short := shortNames(im.TargetNames)
	c.printf("Permutation feature importance — relative RMSE increase when a parameter is shuffled\n")
	c.printf("%-18s", "feature")
	for _, n := range short {
		c.printf(" %12s", n)
	}
	c.printf("\n")
	for i, fname := range im.FeatureNames {
		c.printf("%-18s", fname)
		for _, v := range im.Scores[i] {
			c.printf(" %12.2f", v)
		}
		c.printf("\n")
	}
	c.printf("(reading guide: the web queue should dominate the dealer response times;\n")
	c.printf(" the default queue should matter for purchase/manage but not manufacturing — Figure 4's parallel slopes)\n")

	// Partial dependence of the headline pair: throughput vs web threads.
	grid := surface.Linspace(float64(minInt(c.Sweep.WebThreads)), float64(maxInt(c.Sweep.WebThreads)), 9)
	prof, err := sensitivity.PartialDependence(model, ds, featWeb, indThroughput, grid)
	if err != nil {
		return err
	}
	c.printf("partial dependence of %s on %s:\n ", prof.Target, prof.Feature)
	for gi := range prof.X {
		c.printf(" %g→%.0f", prof.X[gi], prof.Y[gi])
	}
	c.printf("\n\n")

	return c.writeArtifact("importance.csv", func(w io.Writer) error {
		fmt.Fprintf(w, "feature")
		for _, n := range im.TargetNames {
			fmt.Fprintf(w, ",%s", n)
		}
		fmt.Fprintln(w)
		for i, fname := range im.FeatureNames {
			fmt.Fprintf(w, "%s", fname)
			for _, v := range im.Scores[i] {
				fmt.Fprintf(w, ",%.4f", v)
			}
			fmt.Fprintln(w)
		}
		return nil
	})
}

// RunNodeCount automates the paper's §3.2 hand-tuning of the hidden node
// count: candidate topologies are scored by k-fold cross-validation.
func (c *Context) RunNodeCount() error {
	ds, err := c.Dataset()
	if err != nil {
		return err
	}
	candidates := [][]int{{4}, {8}, {16}, {32}, {16, 8}}
	// Node-count selection retrains candidates×folds models; reuse the
	// context's training budget.
	sel, err := core.SelectNodeCount(ds, c.Model, candidates, c.Folds, c.Seed+41)
	if err != nil {
		return err
	}
	c.printf("Hidden-node selection (§3.2) — %d-fold CV error per topology\n", c.Folds)
	c.printf("%-12s %10s %12s\n", "hidden", "params", "CV error")
	for _, cand := range sel.Candidates {
		c.printf("%-12s %10d %11.1f%%\n", fmt.Sprint(cand.Hidden), cand.Params, cand.Error*100)
	}
	c.printf("selected: %v (error %.1f%%, %d parameters)\n\n",
		sel.Best.Hidden, sel.Best.Error*100, sel.Best.Params)

	return c.writeArtifact("nodecount.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "hidden,params,cv_error")
		for _, cand := range sel.Candidates {
			fmt.Fprintf(w, "%q,%d,%.4f\n", fmt.Sprint(cand.Hidden), cand.Params, cand.Error)
		}
		return nil
	})
}
