// Command perfbench is the repository benchmark. It drives the paper
// pipeline and the prediction server through their public functions, on
// one of three workloads, and prints one JSON result line.
//
//	perfbench --workload reproduce-quick --seed 2006 --seconds 10 --trace 0 --out .bench_build
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it records benchmark-owned spans around the calls into
// each layer and reports the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"nnwc/internal/obs"
)

// env is what every workload runs with.
type env struct {
	seed    uint64
	seconds time.Duration
	nproc   int       // bound on goroutines doing work and on connections
	tmp     string    // scratch directory inside the checkout
	out     io.Writer // human-readable report
	rec     *recorder // nil when tracing is off
}

// stamp identifies the conditions of one result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome is what one workload run reports: its metrics and the
// operations it attempted and failed.
type outcome struct {
	Metrics metrics
	Tally   tally
}

type workloadSpec struct {
	name string
	run  func(e *env, g gateResult) (outcome, error)
}

func workloads() []workloadSpec {
	return []workloadSpec{
		{"reproduce-quick", runReproduce},
		{"serve-predict", runServePredict},
		{"serve-fleet", runServeFleet},
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: reproduce-quick, serve-predict or serve-fleet")
		seed    = flag.Uint64("seed", paperSeed, "seed for every generated input")
		seconds = flag.Int("seconds", 10, "seconds the measured phase runs")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
		outDir  = flag.String("out", ".bench_build", "directory for scratch files and traces")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, outDir string) error {
	var spec *workloadSpec
	for _, w := range workloads() {
		if w.name == name {
			spec = &w
		}
	}
	if spec == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	st := stamp{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	stampLine, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stampLine)

	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, nproc: runtime.GOMAXPROCS(0), tmp: tmp, out: os.Stdout}
	g, err := gate(e)
	if err != nil {
		return err
	}
	fmt.Printf("gate: pinned quick outputs match at seed %d; CV bit-identical at 1 and %d workers\n", paperSeed, e.nproc)

	var out outcome
	if traced {
		e.rec = newRecorder()
		out, err = runLayers(e, g)
		if err == nil {
			spans := e.rec.snapshot()
			printSelfTable(os.Stdout, selfTimes(spans))
			path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
			if err = writeJSONL(path, st, spans); err == nil {
				fmt.Printf("trace: %d spans written to %s\n", len(spans), path)
			}
		}
	} else {
		out, err = spec.run(e, g)
	}
	if err != nil {
		return err
	}

	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   out.Tally.Failed == 0,
		Attempted: max(out.Tally.Attempted, 1),
		Failed:    out.Tally.Failed,
		Metrics:   out.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// commit is the VCS revision stamped into the binary, or "unknown" when
// it was built outside a repository.
func commit() string {
	if rev := obs.GitRevision(); rev != "" {
		return rev
	}
	return "unknown"
}

// heapSampler reads the heap every 5 ms while a phase runs, from
// runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done chan []heapSample
}

// heapSample is the bytes held by heap objects, live or not yet swept,
// at one instant.
type heapSample struct {
	at    time.Time
	bytes uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan []heapSample, 1)}
	go func() {
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var out []heapSample
		for {
			rtmetrics.Read(s)
			out = append(out, heapSample{at: time.Now(), bytes: s[0].Value.Uint64()})
			select {
			case <-tick.C:
			case <-h.stop:
				h.done <- out
				return
			}
		}
	}()
	return h
}

// samples stops the sampler and returns what it read.
func (h *heapSampler) samples() []heapSample {
	close(h.stop)
	return <-h.done
}

// peakHeapMB is the median, over the windows between consecutive edges,
// of the peak heap in MiB each window saw. The heap peaks just before
// each collection, so one collection that starts late moves one window's
// peak rather than the figure.
func peakHeapMB(samples []heapSample, edges []time.Time) float64 {
	var peaks []float64
	j := 0
	for w := 0; w+1 < len(edges); w++ {
		var peak uint64
		seen := false
		for ; j < len(samples) && samples[j].at.Before(edges[w+1]); j++ {
			if !samples[j].at.Before(edges[w]) {
				peak = max(peak, samples[j].bytes)
				seen = true
			}
		}
		if seen {
			peaks = append(peaks, float64(peak)/(1<<20))
		}
	}
	return median(peaks)
}

// everySecond returns window edges one second apart from start, the last
// window ending at end.
func everySecond(start, end time.Time) []time.Time {
	var edges []time.Time
	for t := start; t.Before(end); t = t.Add(time.Second) {
		edges = append(edges, t)
	}
	return append(edges, end)
}

// deadlineCtx bounds a phase that must not outlive the run.
func deadlineCtx(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
