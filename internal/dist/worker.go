package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nnwc/internal/httpx"
	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
	"nnwc/internal/sched"
)

// Runner computes one task of a job kind: given the spec and an absolute
// task index, return the result payload bytes (NaN-safe JSON — use
// Float/Floats for any floating-point field). A Runner error is treated
// as deterministic (the task would fail identically anywhere) and is
// reported to the coordinator, not retried.
type Runner func(ctx context.Context, env Env, spec Spec, index int) (json.RawMessage, error)

// Env is what a Runner may ask of its worker: content-addressed artifact
// resolution. Paths are local files whose bytes verified against the hash.
type Env interface {
	ArtifactPath(ctx context.Context, sha string) (string, error)
}

// WorkerConfig parameterizes a Worker. Zero values get defaults.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:9000"; a
	// bare host:port is accepted).
	Coordinator string
	// ID names this worker in coordinator metrics (default host-pid).
	ID string
	// CacheDir holds fetched artifacts, keyed by hash (default: a fresh
	// temp dir). Safe to share across runs — content addressing makes
	// cached files immutable.
	CacheDir string
	// Runners maps Spec.Kind to its task implementation (usually
	// jobs.Runners()).
	Runners map[string]Runner
	// Parallelism bounds concurrent task execution inside one lease
	// (default 1; results stay bit-identical at any value because each
	// task is index-seeded).
	Parallelism int
	// BackoffMin/BackoffMax bound the exponential retry backoff for
	// coordinator requests (defaults 100ms / 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// WaitForJob bounds how long the worker retries the initial job fetch
	// — the window in which it may be started before its coordinator
	// (default 2m).
	WaitForJob time.Duration
	// GiveUp bounds consecutive lease/result retrying once the job has
	// been seen; past it the coordinator is presumed gone for good
	// (default 30s).
	GiveUp time.Duration
	// HTTPTimeout bounds one request/response round trip (default 60s,
	// generous for artifact downloads).
	HTTPTimeout time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() (WorkerConfig, error) {
	if c.Coordinator == "" {
		return c, fmt.Errorf("dist: worker needs a coordinator URL")
	}
	c.Coordinator = NormalizeURL(c.Coordinator)
	if c.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.WaitForJob <= 0 {
		c.WaitForJob = 2 * time.Minute
	}
	if c.GiveUp <= 0 {
		c.GiveUp = 30 * time.Second
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 60 * time.Second
	}
	return c, nil
}

// NormalizeURL adds the http scheme to a bare host:port and trims any
// trailing slash, so "-worker localhost:9000" just works.
func NormalizeURL(s string) string {
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return strings.TrimRight(s, "/")
}

// Worker pulls leases from a coordinator and executes them. One Worker
// runs one job to completion; create with NewWorker, drive with Run.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	// jobID is set once (before the lease loop) from the fetched spec and
	// stamped on every request as the X-NNWC-Run trace header.
	jobID string

	// Per-worker wall-time histograms, pushed to the coordinator as
	// cumulative snapshots on every lease request. Unregistered instances
	// (metrics.NewHistogram, not the default registry) so many workers in
	// one process — tests, benchmarks — never share counters.
	taskHist *metrics.Histogram
	artHist  *metrics.Histogram

	artMu    sync.Mutex
	artPaths map[string]string
}

// NewWorker validates the config and prepares the artifact cache.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.CacheDir == "" {
		dir, err := os.MkdirTemp("", "nnwc-dist-cache-")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir = dir
	} else if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
		return nil, err
	}
	return &Worker{
		cfg:      cfg,
		client:   &http.Client{Timeout: cfg.HTTPTimeout},
		taskHist: metrics.NewHistogram(MetricTaskMS, "task wall time (ms)", metrics.DefMillisBuckets),
		artHist:  metrics.NewHistogram(MetricArtifactMS, "artifact fetch wall time (ms)", metrics.DefMillisBuckets),
		artPaths: make(map[string]string),
	}, nil
}

// metricSnapshots gathers the worker's cumulative histogram snapshots for
// a lease-request push. Empty series are omitted.
func (w *Worker) metricSnapshots() map[string]metrics.HistogramSnapshot {
	snaps := make(map[string]metrics.HistogramSnapshot, 2)
	if s := w.taskHist.Snapshot(); s.Count > 0 {
		snaps[MetricTaskMS] = s
	}
	if s := w.artHist.Snapshot(); s.Count > 0 {
		snaps[MetricArtifactMS] = s
	}
	if len(snaps) == 0 {
		return nil
	}
	return snaps
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// permanentError marks a coordinator response that retrying cannot fix
// (4xx — a protocol or spec problem, not an outage).
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// retry runs fn with exponential backoff until it succeeds, returns a
// permanentError, ctx ends, or `budget` of consecutive failure has
// elapsed.
func (w *Worker) retry(ctx context.Context, budget time.Duration, fn func() error) error {
	deadline := time.Now().Add(budget)
	backoff := w.cfg.BackoffMin
	for {
		err := fn()
		if err == nil {
			return nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dist: giving up after %s: %w", budget, err)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
		backoff *= 2
		if backoff > w.cfg.BackoffMax {
			backoff = w.cfg.BackoffMax
		}
	}
}

// Start runs the worker on its own goroutine, for callers that drive a
// coordinator and its workers inside one process (benchmarks, tests).
// The returned channel receives Run's result exactly once. The
// coordinator's Wait remains the authoritative job outcome; a worker
// error here is only diagnostic.
func (w *Worker) Start(ctx context.Context) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- w.Run(ctx) }()
	return ch
}

// Run executes the coordinator's job until Done: fetch the spec, then
// loop lease → compute → stream results. Returns nil once the
// coordinator reports every task complete.
func (w *Worker) Run(ctx context.Context) error {
	var spec Spec
	err := w.retry(ctx, w.cfg.WaitForJob, func() error {
		return w.getJSON(ctx, "/dist/job", &spec)
	})
	if err != nil {
		return fmt.Errorf("dist: worker %s: fetching job from %s: %w", w.cfg.ID, w.cfg.Coordinator, err)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	runner, ok := w.cfg.Runners[spec.Kind]
	if !ok {
		return fmt.Errorf("dist: worker %s has no runner for job kind %q", w.cfg.ID, spec.Kind)
	}
	w.jobID = spec.JobID // stamped as X-NNWC-Run on every request from here on
	w.logf("dist: worker %s: job %q, %d tasks, coordinator %s", w.cfg.ID, spec.Kind, spec.NumTasks, w.cfg.Coordinator)

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var rep leaseReply
		err := w.retry(ctx, w.cfg.GiveUp, func() error {
			return w.postJSON(ctx, "/dist/lease", leaseRequest{Worker: w.cfg.ID, Metrics: w.metricSnapshots()}, &rep)
		})
		if err != nil {
			return fmt.Errorf("dist: worker %s: leasing: %w", w.cfg.ID, err)
		}
		switch {
		case rep.Done:
			w.logf("dist: worker %s: job complete", w.cfg.ID)
			return nil
		case rep.LeaseID == 0:
			wait := time.Duration(rep.RetryMS) * time.Millisecond
			if wait <= 0 {
				wait = 250 * time.Millisecond
			}
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-timer.C:
			}
		default:
			if err := w.runLease(ctx, runner, spec, rep); err != nil {
				return err
			}
		}
	}
}

// runLease computes every index in [rep.Lo, rep.Hi) and streams each
// result back as it lands. Tasks inside the lease may run concurrently
// (Parallelism); payloads are index-seeded so the results are identical
// either way.
func (w *Worker) runLease(ctx context.Context, runner Runner, spec Spec, rep leaseReply) error {
	n := rep.Hi - rep.Lo
	return sched.ForEachWorker(sched.Workers(w.cfg.Parallelism), n, func(i, _ int) error {
		idx := rep.Lo + i
		// Each task gets its own buffered trace: the runner emits its
		// deterministic events through the context, the worker closes the
		// block with a dist_task span, and the whole buffer ships with the
		// result for the coordinator to merge in index order.
		var events bytes.Buffer
		tr := obs.NewTrace(obs.NewWriterSink(&events))
		start := time.Now()
		payload, err := runner(obs.ContextWithTrace(ctx, tr), w, spec, idx)
		elapsed := time.Since(start)
		ms := float64(elapsed) / float64(time.Millisecond)
		tr.Emit("dist_task",
			obs.String("kind", spec.Kind),
			obs.Int("index", idx),
			obs.String("worker", w.cfg.ID),
			obs.Int("lease", int(rep.LeaseID)),
			obs.Float("ms", ms))
		w.taskHist.Observe(ms)
		workerTasksTotal.Inc()
		res := resultRequest{
			LeaseID: rep.LeaseID,
			Worker:  w.cfg.ID,
			Index:   idx,
			Events:  events.String(),
		}
		if err != nil {
			// Deterministic task failure: report it, don't retry it.
			res.Error = err.Error()
		} else {
			res.Payload = payload
		}
		var rr resultReply
		if err := w.retry(ctx, w.cfg.GiveUp, func() error {
			return w.postJSON(ctx, "/dist/result", res, &rr)
		}); err != nil {
			return fmt.Errorf("dist: worker %s: delivering task %d: %w", w.cfg.ID, idx, err)
		}
		return nil
	})
}

// ArtifactPath implements Env: fetch-once, hash-verify, cache on disk.
// artMu guards only the in-memory path map; the disk probe and the
// network fetch run unlocked so one stalled download cannot serialize
// every other task's artifact resolution. Two goroutines racing on the
// same sha may both fetch, but the temp+rename publish is atomic and
// idempotent, so the loser merely wastes a download.
func (w *Worker) ArtifactPath(ctx context.Context, sha string) (string, error) {
	w.artMu.Lock()
	if path, ok := w.artPaths[sha]; ok {
		w.artMu.Unlock()
		return path, nil
	}
	w.artMu.Unlock()
	path := filepath.Join(w.cfg.CacheDir, sha)
	if body, err := os.ReadFile(path); err == nil && obs.HashBytes(body) == sha {
		w.artMu.Lock()
		w.artPaths[sha] = path // warm cache from an earlier run
		w.artMu.Unlock()
		return path, nil
	}
	var body []byte
	fetchStart := time.Now()
	err := w.retry(ctx, w.cfg.GiveUp, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+"/dist/artifact/"+sha, nil)
		if err != nil {
			return permanentError{err}
		}
		w.stampHeaders(req)
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			err := fmt.Errorf("artifact %s: %s: %s", sha, resp.Status, strings.TrimSpace(string(b)))
			if resp.StatusCode >= 400 && resp.StatusCode < 500 {
				return permanentError{err}
			}
			return err
		}
		body = b
		return nil
	})
	if err != nil {
		return "", err
	}
	w.artHist.Observe(float64(time.Since(fetchStart)) / float64(time.Millisecond))
	if got := obs.HashBytes(body); got != sha {
		return "", fmt.Errorf("dist: artifact %s failed content verification (got %s)", sha, got)
	}
	tmp, err := os.CreateTemp(w.cfg.CacheDir, ".fetch-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(body); err != nil {
		_ = tmp.Close() // the write error is the one worth returning
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	w.artMu.Lock()
	w.artPaths[sha] = path
	w.artMu.Unlock()
	return path, nil
}

func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.cfg.Coordinator+path, nil)
	if err != nil {
		return permanentError{err}
	}
	return w.do(req, out)
}

func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return permanentError{err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return permanentError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	return w.do(req, out)
}

// stampHeaders adds the trace-propagation headers, so the coordinator's
// server-side spans attribute the request to this worker and run.
func (w *Worker) stampHeaders(req *http.Request) {
	req.Header.Set(httpx.HeaderWorker, w.cfg.ID)
	if w.jobID != "" {
		req.Header.Set(httpx.HeaderRun, w.jobID)
	}
}

func (w *Worker) do(req *http.Request, out any) error {
	w.stampHeaders(req)
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(body)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return permanentError{err}
		}
		return err
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
	}
	return nil
}
