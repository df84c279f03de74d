package experiments

import (
	"fmt"
	"io"
	"math"

	"nnwc/internal/recommend"
	"nnwc/internal/threetier"
)

// RunRecommend exercises the §5.3 suggestion of "a system that recommends
// the best configuration according to a scoring function": it searches the
// thread-pool space (at the paper's injection rate 560) for the
// configuration maximizing predicted effective throughput subject to the
// workload's response-time constraints, then replays the recommendation in
// the simulator to verify the model did not hallucinate the optimum.
func (c *Context) RunRecommend() error {
	model, err := c.FullModel()
	if err != nil {
		return err
	}

	space := recommend.Space{
		// (injection rate, default, mfg, web); rate is pinned by a
		// degenerate range.
		Lo:      []float64{560, float64(minInt(c.Sweep.DefaultThreads)), float64(minInt(c.Sweep.MfgThreads)), float64(minInt(c.Sweep.WebThreads))},
		Hi:      []float64{560, float64(maxInt(c.Sweep.DefaultThreads)), float64(maxInt(c.Sweep.MfgThreads)), float64(maxInt(c.Sweep.WebThreads))},
		Integer: []bool{false, true, true, true},
	}
	// Maximize throughput subject to the workload's response-time
	// deadlines (in ms, matching the indicator units).
	bounds := []float64{140, 80, 60, 65, math.Inf(1)}
	scorer := recommend.SLAScore(indThroughput, bounds)

	res, err := recommend.Search(model, space, scorer, recommend.Options{Seed: c.Seed + 9})
	if err != nil {
		return err
	}

	best := res.Best
	c.printf("Recommendation — maximize effective throughput s.t. response-time SLAs at rate 560\n")
	c.printf("  recommended config: default=%g mfg=%g web=%g\n", best.X[featDefault], best.X[featMfg], best.X[featWeb])
	c.printf("  predicted: mfg=%.1fms pur=%.1fms man=%.1fms brw=%.1fms eff=%.1f tx/s\n",
		best.Y[0], best.Y[1], best.Y[2], best.Y[3], best.Y[4])

	cfg := threetier.Config{
		InjectionRate:  best.X[featRate],
		DefaultThreads: int(best.X[featDefault] + 0.5),
		MfgThreads:     int(best.X[featMfg] + 0.5),
		WebThreads:     int(best.X[featWeb] + 0.5),
	}
	truth, err := c.groundTruth([]truthKey{{cfg, c.Seed + 10}})
	if err != nil {
		return err
	}
	ind := truth[0]
	c.printf("  simulated: mfg=%.1fms pur=%.1fms man=%.1fms brw=%.1fms eff=%.1f tx/s\n",
		ind[0], ind[1], ind[2], ind[3], ind[4])

	err = c.writeArtifact("recommendation.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "rank,default,mfg,web,predicted_eff_tps,score")
		for i, cand := range res.Top {
			fmt.Fprintf(w, "%d,%g,%g,%g,%.2f,%.2f\n", i+1,
				cand.X[featDefault], cand.X[featMfg], cand.X[featWeb], cand.Y[indThroughput], cand.Score)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c.printf("\n")
	return nil
}
