package main

import (
	"fmt"
	"time"

	"nnwc/internal/serve/router"
)

// runLayers is the traced run. Whatever the workload, it measures every
// per-layer metric, so that each traced run reports every metric
// BENCHMARK.json lists: the quick campaign, a training round on the
// 648-row paper grid, the single-tenant server and the fleet. Each part
// runs its main operation once untraced and once traced, and prints the
// difference as the tracing overhead.
func runLayers(e *env, g gateResult) (outcome, error) {
	m := metrics{}
	if err := layerCampaign(e, m); err != nil {
		return outcome{}, err
	}
	ds, sweep, err := collectPaperGrid()
	if err != nil {
		return outcome{}, err
	}
	if err := layerTraining(e, paperTrainer(ds, sweep, e.seed), m); err != nil {
		return outcome{}, err
	}
	var out outcome
	for _, part := range []func(*env, gateResult, metrics) (tally, error){layerServe, layerFleet} {
		t, err := part(e, g, m)
		if err != nil {
			return outcome{}, err
		}
		out.Tally.add(t)
	}
	out.Metrics = m
	return out, nil
}

// layerServe measures the single-tenant serving layers: HTTP at 700
// req/s, the highest rate of a ladder from 100 req/s whose p90 meets the
// limit without a growing backlog, the same schedules replayed through
// Server.PredictRef, one forward pass, and the generator's own lateness.
func layerServe(e *env, g gateResult, m metrics) (t tally, err error) {
	rows := rowPool(e.seed, 512)
	f, err := setupPredict(e, g.Quick, rows, 0)
	if err != nil {
		return t, err
	}
	defer func() {
		if cerr := f.s.close(); err == nil {
			err = cerr
		}
	}()
	reqs := predictRequests(e.seed, rows, 4096)
	untraced := *e
	untraced.rec = nil
	run := func(e *env, rate float64, n int, inproc bool, name string) openResult {
		r := phase(e, f.s, f.answers, g.Quick, rows, poissonSchedule(e.seed, rate, n), reqs, inproc, name)
		t.add(r.Tally)
		return r
	}
	base := run(&untraced, lowRate, 500, false, "serve.http")
	http200 := run(e, lowRate, 500, false, "serve.http")
	fmt.Fprintf(e.out, "trace overhead, /predict p50 at %g req/s: traced %.4f ms - untraced %.4f ms = %+.4f ms\n",
		lowRate, median(http200.Latency), median(base.Latency), median(http200.Latency)-median(base.Latency))
	http700 := run(e, highRate, 1050, false, "serve.http")
	fmt.Fprintf(e.out, "predict_p50_ms.r700 %.4f predict_p90_ms.r700 %.4f (%s)\n",
		median(http700.Latency), tailAt(http700.Latency, 0.9).Value, tailAt(http700.Latency, 0.9))
	ctx, cancel := deadlineCtx(time.Minute)
	defer cancel()
	steps, best := rateLadder(ctx, e.seed, 100, 1500, 50, ladderRungReqs, ladderRefine, e.nproc, latencyLimitMs,
		func(sch []time.Duration) openResult {
			r := phase(e, f.s, f.answers, g.Quick, rows, sch, reqs, false, "serve.http")
			t.add(r.Tally)
			return r
		})
	if best == 0 {
		return t, fmt.Errorf("no ladder rung met the %g ms p90 limit: %+v", latencyLimitMs, steps[0])
	}
	last := steps[len(steps)-1]
	fmt.Fprintf(e.out, "predict_max_rps %g (%d rungs, last at %g req/s: %s, growing backlog %v)\n",
		best, len(steps), last.Rate, last.P90, last.Growing)
	in200 := run(e, lowRate, 1000, true, "serve.inproc")
	in700 := run(e, highRate, 1050, true, "serve.inproc")

	fwd := make([]float64, 0, 2000)
	id := e.rec.begin("core.forward", 0, 0)
	for i := 0; i < cap(fwd); i++ {
		start := time.Now()
		f.model.Predict(rows[i%len(rows)])
		fwd = append(fwd, ms(time.Since(start))*1000)
	}
	e.rec.end(id)

	lag := append(append(append([]float64(nil), base.Lag...), http200.Lag...), http700.Lag...)
	return t, setAll(m,
		kv{"serve.http_ms.p50", "ms", median(http700.Service)},
		kv{"serve.http_ms.p99", "ms", tailAt(http700.Service, 0.99).Value},
		kv{"serve.inproc_us.p50", "us", median(in200.Service) * 1000},
		kv{"serve.inproc_us.p99", "us", tailAt(in200.Service, 0.99).Value * 1000},
		kv{"serve.http_self_us", "us", (median(http700.Service) - median(in700.Service)) * 1000},
		kv{"core.forward_us", "us", median(fwd)},
		kv{"loadgen.lag_ms", "ms", tailAt(lag, 0.99).Value},
		kv{"serve.max_rps", "1/s", best},
	)
}

// layerFleet measures the fleet layers: the registry's warm cache under
// the fleet mix, one cold rehydration, and the in-process cost of live,
// pinned and observe requests.
func layerFleet(e *env, g gateResult, m metrics) (t tally, err error) {
	rows := rowPool(e.seed, 512)
	f, err := setupFleet(e, g.Quick, rows, 0)
	if err != nil {
		return t, err
	}
	defer func() {
		if cerr := f.s.close(); err == nil {
			err = cerr
		}
	}()
	reqs := f.fleetRequests(e.seed, rows, g.Quick, 4096)
	untraced := *e
	untraced.rec = nil
	n := int(fleetRate * 3)
	run := func(e *env, inproc bool, name string) openResult {
		r := phase(e, f.s, f.answers, g.Quick, rows, poissonSchedule(e.seed, fleetRate, n), reqs, inproc, name)
		t.add(r.Tally)
		return r
	}
	reg := f.s.srv.Registry()
	base := run(&untraced, false, "serve.http")
	loads0, evict0, hits0 := reg.Stats()
	traced := run(e, false, "serve.http")
	loads1, evict1, hits1 := reg.Stats()
	fmt.Fprintf(e.out, "trace overhead, fleet p50 at %g req/s: traced %.4f ms - untraced %.4f ms = %+.4f ms\n",
		fleetRate, median(traced.Latency), median(base.Latency), median(traced.Latency)-median(base.Latency))
	in := run(e, true, "serve.inproc")
	_, live := in.where(func(i int) bool { r := reqs[i%len(reqs)]; return !r.observe && !r.pinned })
	_, pinned := in.where(func(i int) bool { return reqs[i%len(reqs)].pinned })
	_, observe := in.where(func(i int) bool { return reqs[i%len(reqs)].observe })

	// Cycling through all 16 versions in order misses an LRU of 8 every
	// time, so each call rehydrates an evicted version from disk.
	var cold []float64
	for pass := 0; pass < 2; pass++ {
		for _, ref := range f.pinned {
			tenant, version, err := router.ParseRef(ref)
			if err != nil {
				return t, err
			}
			before, _, _ := reg.Stats()
			id := e.rec.begin("registry.instance", 0, 0)
			start := time.Now()
			_, err = reg.Instance(tenant, version)
			d := time.Since(start)
			e.rec.end(id)
			if err != nil {
				return t, err
			}
			if after, _, _ := reg.Stats(); after > before {
				cold = append(cold, ms(d))
			}
		}
	}
	hits, loads := float64(hits1-hits0), float64(loads1-loads0)
	return t, setAll(m,
		kv{"registry.hit_ratio", "ratio", hits / (hits + loads)},
		kv{"registry.evictions", "count", float64(evict1 - evict0)},
		kv{"registry.cold_load_ms", "ms", median(cold)},
		kv{"serve.inproc_live_us", "us", median(live) * 1000},
		kv{"serve.inproc_pinned_us", "us", median(pinned) * 1000},
		kv{"deploy.observe_us", "us", median(observe) * 1000},
	)
}
