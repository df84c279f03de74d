package main

import (
	"context"
	"math"
	"sync"
	"time"

	"nnwc/internal/rng"
)

// poissonSchedule returns the send offsets of n arrivals at rate per
// second: exponential gaps drawn from a stream derived from seed and the
// rate, so every (seed, rate) pair gives the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	src := rng.New(seed ^ math.Float64bits(rate))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += src.Exp(rate)
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openResult is what one open-loop phase measured. Latencies run from
// each request's due time, so a stall shows in every request it delays.
type openResult struct {
	Latency []float64 // ms from due time to reply, successful requests only
	Service []float64 // ms from send to reply, successful requests only
	Index   []int     // schedule index of each Latency and Service entry
	Lag     []float64 // ms the generator handed each request over late
	Backlog []int     // requests due but not yet sent, at each hand-over
	Tally   tally
}

// where returns the latencies and service times of the successful
// requests whose schedule index satisfies keep.
func (r openResult) where(keep func(i int) bool) (latency, service []float64) {
	for k, i := range r.Index {
		if keep(i) {
			latency = append(latency, r.Latency[k])
			service = append(service, r.Service[k])
		}
	}
	return latency, service
}

// growing reports whether the backlog grew during the phase: the mean of
// its last third exceeds the mean of its first third by more than two
// requests per connection. A system keeping up holds a bounded backlog
// that Poisson bursts push around by a few requests; an overloaded one
// falls further behind with every arrival.
func (r openResult) growing(conns int) bool {
	n := len(r.Backlog) / 3
	if n == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	return mean(r.Backlog[len(r.Backlog)-n:]) > mean(r.Backlog[:n])+float64(2*conns)
}

// openLoop sends one request per schedule entry at its due time, whether
// or not earlier ones have finished, through conns workers (one
// keep-alive connection each). do performs request i on worker w and
// reports whether its answer was correct; an error counts as a failure.
func openLoop(ctx context.Context, schedule []time.Duration, conns int, do func(w, i int) (bool, error)) openResult {
	// Sized to the number of sends, so handing over never blocks and the
	// generator's own lateness stays separate from the system's.
	queue := make(chan int, len(schedule))
	due := make([]time.Time, len(schedule))
	res := openResult{Lag: make([]float64, 0, len(schedule)), Backlog: make([]int, 0, len(schedule))}

	type outcome struct {
		latency, service float64
		ok               bool
	}
	outs := make([]outcome, len(schedule))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range queue {
				d := due[i] // written before the send that delivered i
				sent := time.Now()
				ok, err := do(w, i)
				done := time.Now()
				outs[i] = outcome{
					latency: ms(done.Sub(d)),
					service: ms(done.Sub(sent)),
					ok:      ok && err == nil,
				}
			}
		}(w)
	}

	start := time.Now()
	for i, at := range schedule {
		d := start.Add(at)
		if wait := time.Until(d); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
			}
		}
		if ctx.Err() != nil {
			break
		}
		due[i] = d
		res.Lag = append(res.Lag, ms(time.Since(d)))
		res.Backlog = append(res.Backlog, len(queue))
		queue <- i
	}
	close(queue)
	wg.Wait()

	for i := range res.Lag {
		res.Tally.record(outs[i].ok)
		if outs[i].ok {
			res.Latency = append(res.Latency, outs[i].latency)
			res.Service = append(res.Service, outs[i].service)
			res.Index = append(res.Index, i)
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ladderStep is one rung of a rate ladder.
type ladderStep struct {
	Rate    float64
	P90     tail
	Growing bool
	Tally   tally
}

func (s ladderStep) meets(limitMs float64) bool {
	return s.Tally.Failed == 0 && !s.Growing && s.P90.Q >= 0.9 && s.P90.Value <= limitMs
}

// rateLadder climbs from lo to hi in steps of step req/s, sending n
// requests per rung, and stops at the first rung that misses the p90
// limit, fails a request or builds a growing backlog. It then bisects
// between the last rung that met the limit and the first that missed it
// refine times, so the reported rate resolves to step/2^refine. It
// returns every rung run and the highest rate that met the limit (0 if
// none did).
func rateLadder(ctx context.Context, seed uint64, lo, hi, step float64, n, refine, conns int, limitMs float64,
	run func(schedule []time.Duration) openResult) ([]ladderStep, float64) {
	var steps []ladderStep
	try := func(rate float64) bool {
		r := run(poissonSchedule(seed, rate, n))
		s := ladderStep{Rate: rate, P90: tailAt(r.Latency, 0.9), Growing: r.growing(conns), Tally: r.Tally}
		steps = append(steps, s)
		return s.meets(limitMs)
	}
	best, missed := 0.0, 0.0
	for rate := lo; rate <= hi && ctx.Err() == nil; rate += step {
		if !try(rate) {
			missed = rate
			break
		}
		best = rate
	}
	for i := 0; i < refine && best > 0 && missed > 0 && ctx.Err() == nil; i++ {
		mid := (best + missed) / 2
		if try(mid) {
			best = mid
		} else {
			missed = mid
		}
	}
	return steps, best
}
