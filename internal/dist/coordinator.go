package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"nnwc/internal/httpx"
	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
	"nnwc/internal/sched"
)

// CoordinatorConfig parameterizes a Coordinator. Zero values get defaults.
type CoordinatorConfig struct {
	// Addr is the listen address (use "127.0.0.1:0" in tests).
	Addr string
	// Spec is the job to distribute.
	Spec Spec
	// ArtifactPaths maps each Spec.Artifacts hash to the local file the
	// coordinator serves for it.
	ArtifactPaths map[string]string
	// LeaseSize is the number of task indexes per lease (default: an
	// auto size targeting ~16 leases, minimum 1 — small jobs stay
	// fine-grained for reassignment, large grids amortize round trips).
	LeaseSize int
	// LeaseTTL is how long a worker may sit on a lease without delivering
	// its results before the tasks are reassigned (default 60s).
	LeaseTTL time.Duration
	// PollInterval is the retry hint handed to workers when every pending
	// task is leased out (default 250ms).
	PollInterval time.Duration
	// LingerAfterDone keeps the listener answering Done after the last
	// result, so other workers observe completion and exit cleanly
	// instead of erroring on a vanished coordinator (default 2s).
	LingerAfterDone time.Duration
	// StateFile, when set, journals completed tasks so a restarted
	// coordinator with the same spec skips them. "" disables resume.
	StateFile string
	// ClusterTraceFile, when set, is where the coordinator writes the
	// merged cluster trace once the job completes: worker-shipped
	// per-task event blocks in index order, framed by a deterministic
	// header/footer and interleaved with the (volatile) lease/reassign
	// ops narrative. "" disables trace merging.
	ClusterTraceFile string
	// Timeouts harden the HTTP listener (zero: httpx defaults).
	Timeouts httpx.Timeouts
	// Logf, when set, receives progress lines (use obs-aware printers in
	// cmd; nil is silent).
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Addr == "" {
		c.Addr = ":9000"
	}
	if c.LeaseSize <= 0 {
		c.LeaseSize = (c.Spec.NumTasks + 15) / 16
		if c.LeaseSize < 1 {
			c.LeaseSize = 1
		}
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.LingerAfterDone <= 0 {
		c.LingerAfterDone = 2 * time.Second
	}
	return c
}

// Stats counts one coordinator's protocol events (the package-level
// metrics aggregate across coordinators; tests want per-job numbers).
type Stats struct {
	Leases     uint64 // leases granted
	Reassigned uint64 // tasks reclaimed from expired leases
	Duplicates uint64 // duplicate result deliveries dropped
	Resumed    uint64 // tasks preloaded from the state journal
}

type lease struct {
	id       uint64
	worker   string
	deadline time.Time
	pending  map[int]struct{}
}

// Coordinator owns a job: it leases index ranges to workers, serves the
// content-addressed artifacts they need, collects index-addressed results
// idempotently, reclaims leases from dead workers, and journals progress.
type Coordinator struct {
	cfg         CoordinatorConfig
	fingerprint string

	ln       net.Listener
	http     *http.Server
	serveErr chan error

	mu        sync.Mutex
	pending   [][2]int // FIFO of [lo, hi) index ranges not currently leased
	leases    map[uint64]*lease
	nextLease uint64
	results   []json.RawMessage
	taskErrs  []string
	resolved  []bool
	remaining int
	failed    int
	stats     Stats
	journal   *stateWriter
	rec       *clusterRecorder
	started   time.Time
	done      chan struct{}
}

// NewCoordinator validates the spec, loads the state journal (if any),
// and prepares the lease queue over the still-missing indexes.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	for role, sha := range cfg.Spec.Artifacts {
		if _, ok := cfg.ArtifactPaths[sha]; !ok {
			return nil, fmt.Errorf("dist: artifact %q (%s) has no local path", role, sha)
		}
	}
	cfg = cfg.withDefaults()
	n := cfg.Spec.NumTasks
	c := &Coordinator{
		cfg:         cfg,
		fingerprint: cfg.Spec.Fingerprint(),
		serveErr:    make(chan error, 1),
		leases:      make(map[uint64]*lease),
		results:     make([]json.RawMessage, n),
		taskErrs:    make([]string, n),
		resolved:    make([]bool, n),
		remaining:   n,
		started:     time.Now(),
		done:        make(chan struct{}),
	}
	if cfg.ClusterTraceFile != "" {
		c.rec = newClusterRecorder(n)
	}
	if cfg.StateFile != "" {
		entries, err := readState(cfg.StateFile, c.fingerprint)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.Index < 0 || e.Index >= n || c.resolved[e.Index] {
				continue
			}
			c.resolved[e.Index] = true
			c.results[e.Index] = e.Payload
			c.taskErrs[e.Index] = e.Error
			if c.rec != nil {
				// Journaled events survive a coordinator restart, so a
				// resumed run still merges a complete cluster trace.
				c.rec.taskResolved(e.Index, e.Events)
			}
			if e.Error != "" {
				c.failed++
			}
			c.remaining--
			c.stats.Resumed++
		}
		resumedTotal.Add(c.stats.Resumed)
		hdr := stateHeader{JobID: cfg.Spec.JobID, Kind: cfg.Spec.Kind, NumTasks: n, Fingerprint: c.fingerprint}
		c.journal, err = openStateWriter(cfg.StateFile, hdr, len(entries) == 0)
		if err != nil {
			return nil, err
		}
		if c.stats.Resumed > 0 {
			c.logf("dist: resuming %s: %d/%d tasks already journaled in %s", cfg.Spec.Kind, c.stats.Resumed, n, cfg.StateFile)
		}
	}
	c.pending = c.missingRanges()
	if c.remaining == 0 {
		close(c.done)
	}
	return c, nil
}

// missingRanges compresses the unresolved indexes into lease-sized ranges.
// Must hold mu (or be pre-Start).
func (c *Coordinator) missingRanges() [][2]int {
	var ranges [][2]int
	n := c.cfg.Spec.NumTasks
	for lo := 0; lo < n; {
		if c.resolved[lo] {
			lo++
			continue
		}
		hi := lo
		for hi < n && !c.resolved[hi] && hi-lo < c.cfg.LeaseSize {
			hi++
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	if len(ranges) == 0 && c.remaining == n {
		return sched.Shard(n, c.cfg.LeaseSize)
	}
	return ranges
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Handler returns the coordinator's HTTP API (mountable in tests),
// wrapped in the shared httpx instrumentation: per-route request metrics
// and trace-header extraction, the same middleware the serve plane
// mounts.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /dist/job", c.handleJob)
	mux.HandleFunc("POST /dist/lease", c.handleLease)
	mux.HandleFunc("POST /dist/result", c.handleResult)
	mux.HandleFunc("GET /dist/artifact/{sha}", c.handleArtifact)
	mux.HandleFunc("GET /dist/progress", c.handleProgress)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	var tr *obs.Trace
	if c.rec != nil {
		tr = c.rec.tr
	}
	return httpx.Instrument(httpx.InstrumentOptions{Service: "dist", Route: distRoute, Trace: tr}, mux)
}

// distRoute collapses the content-addressed artifact path so the route
// label space stays bounded (one label, not one per SHA-256).
func distRoute(r *http.Request) string {
	path := r.URL.Path
	if strings.HasPrefix(path, "/dist/artifact/") {
		path = "/dist/artifact/{sha}"
	}
	return r.Method + " " + path
}

// handleMetrics exposes the process-wide registry — including the
// federated per-worker and merged cluster histograms — on the
// coordinator itself, so scraping the cluster needs one target.
func handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.Default().Write(w)
}

// Start binds the listener and serves the protocol until Wait completes
// the job (or the context given to Wait is canceled).
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	c.ln = ln
	c.http = httpx.NewServer(c.Handler(), c.cfg.Timeouts)
	// Capture the server: close() nils c.http, and a Wait on an
	// already-canceled context can run it before this goroutine is
	// scheduled.
	srv := c.http
	go func() { c.serveErr <- srv.Serve(ln) }()
	c.logf("dist: coordinating %q (%d tasks, lease size %d) on %s", c.cfg.Spec.Kind, c.cfg.Spec.NumTasks, c.cfg.LeaseSize, c.Addr())
	return nil
}

// Addr reports the bound listen address.
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return c.cfg.Addr
	}
	return c.ln.Addr().String()
}

// Progress reports completed/failed/total task counts plus the live
// worker count and elapsed wall time `nnwc runs tail` renders.
func (c *Coordinator) Progress() Progress {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.cfg.Spec.NumTasks
	workers := make(map[string]struct{}, len(c.leases))
	for _, l := range c.leases {
		if !now.After(l.deadline) {
			workers[l.worker] = struct{}{}
		}
	}
	return Progress{
		Completed:  n - c.remaining - c.failed,
		Failed:     c.failed,
		Total:      n,
		Workers:    len(workers),
		ElapsedSec: now.Sub(c.started).Seconds(),
	}
}

// CoordStats snapshots the per-job protocol counters.
func (c *Coordinator) CoordStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Wait blocks until every task has a result (or ctx is canceled), lingers
// briefly so polling workers observe Done, then stops the listener and
// returns the payloads in index order. If any task failed, the error of
// the lowest-index failing task is returned — the same
// first-error-in-index-order semantics sched.ForEach has.
func (c *Coordinator) Wait(ctx context.Context) ([]json.RawMessage, error) {
	defer c.close()
	select {
	case <-c.done:
	case err := <-c.serveErr:
		if err != nil {
			return nil, fmt.Errorf("dist: coordinator listener: %w", err)
		}
		return nil, fmt.Errorf("dist: coordinator listener closed before the job finished")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c.http != nil {
		// Let pollers see Done before the listener goes away.
		timer := time.NewTimer(c.cfg.LingerAfterDone)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.taskErrs {
		if e != "" {
			return nil, fmt.Errorf("dist: task %d: %s", i, e)
		}
	}
	out := make([]json.RawMessage, len(c.results))
	copy(out, c.results)
	return out, nil
}

// Run is Start + Wait.
func (c *Coordinator) Run(ctx context.Context) ([]json.RawMessage, error) {
	if err := c.Start(); err != nil {
		return nil, err
	}
	return c.Wait(ctx)
}

func (c *Coordinator) close() {
	if c.http != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c.http.Shutdown(sctx)
		cancel()
		c.http = nil
	}
	// Detach the journal and recorder under the lock, then do the file
	// I/O after releasing it: close() must not hold mu across disk
	// writes while Progress or a straggling handler contends for it.
	c.mu.Lock()
	journal := c.journal
	c.journal = nil
	// Merge the cluster trace once, after Shutdown has drained the
	// handlers (no sink can still be appending to the ops narrative) and
	// only for a completed job — a canceled run has no coherent trace.
	var rec *clusterRecorder
	if c.rec != nil && c.remaining == 0 {
		rec = c.rec
		c.rec = nil
	}
	failed := c.failed
	c.mu.Unlock()
	if journal != nil {
		if err := journal.close(); err != nil {
			c.logf("dist: closing state journal failed: %v", err)
		}
	}
	if rec != nil {
		if err := rec.write(c.cfg.ClusterTraceFile, c.cfg.Spec, c.fingerprint, failed); err != nil {
			c.logf("dist: writing cluster trace %s failed: %v", c.cfg.ClusterTraceFile, err)
		} else {
			c.logf("dist: merged cluster trace in %s", c.cfg.ClusterTraceFile)
		}
	}
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.cfg.Spec)
}

// reclaimLocked requeues the unresolved indexes of expired leases. Must
// hold mu. Indexes are gathered across all expired leases and re-sharded
// in sorted order so requeue order never depends on map iteration.
func (c *Coordinator) reclaimLocked(now time.Time) {
	var expired []uint64
	var idxs []int
	for id, l := range c.leases {
		if now.After(l.deadline) {
			expired = append(expired, id)
			for idx := range l.pending {
				if !c.resolved[idx] {
					idxs = append(idxs, idx)
				}
			}
		}
	}
	if len(expired) == 0 {
		return
	}
	for _, id := range expired {
		delete(c.leases, id)
	}
	if len(idxs) == 0 {
		return
	}
	sort.Ints(idxs)
	for lo := 0; lo < len(idxs); {
		hi := lo + 1
		for hi < len(idxs) && idxs[hi] == idxs[hi-1]+1 && hi-lo < c.cfg.LeaseSize {
			hi++
		}
		c.pending = append(c.pending, [2]int{idxs[lo], idxs[hi-1] + 1})
		lo = hi
	}
	c.stats.Reassigned += uint64(len(idxs))
	reassignedTotal.Add(uint64(len(idxs)))
	if c.rec != nil {
		c.rec.reassigned(len(idxs), len(expired))
	}
	c.logf("dist: reassigned %d task(s) from %d expired lease(s)", len(idxs), len(expired))
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	// Every lease request doubles as a metrics push: absorb the worker's
	// cumulative snapshots into the federated series before touching the
	// lease table (the vec has its own lock; no need for c.mu).
	absorbWorkerMetrics(req.Worker, req.Metrics)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaimLocked(now)
	if c.remaining == 0 {
		writeJSON(w, http.StatusOK, leaseReply{Done: true})
		return
	}
	if len(c.pending) == 0 {
		writeJSON(w, http.StatusOK, leaseReply{RetryMS: int(c.cfg.PollInterval / time.Millisecond)})
		return
	}
	rng := c.pending[0]
	c.pending = c.pending[1:]
	c.nextLease++
	l := &lease{
		id:       c.nextLease,
		worker:   req.Worker,
		deadline: now.Add(c.cfg.LeaseTTL),
		pending:  make(map[int]struct{}, rng[1]-rng[0]),
	}
	for idx := rng[0]; idx < rng[1]; idx++ {
		l.pending[idx] = struct{}{}
	}
	c.leases[l.id] = l
	c.stats.Leases++
	leasesTotal.Inc()
	if c.rec != nil {
		c.rec.leaseGranted(req.Worker, rng[0], rng[1], l.id)
	}
	writeJSON(w, http.StatusOK, leaseReply{LeaseID: l.id, Lo: rng[0], Hi: rng[1]})
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Index < 0 || req.Index >= c.cfg.Spec.NumTasks {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("index %d out of range [0,%d)", req.Index, c.cfg.Spec.NumTasks)})
		return
	}
	if len(req.Payload) == 0 && req.Error == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "result carries neither payload nor error"})
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.resolved[req.Index] {
		// Idempotent index-addressed store: the first delivery won. The
		// payloads are deterministic, so the loser carried the same bits.
		c.stats.Duplicates++
		duplicatesTotal.Inc()
		writeJSON(w, http.StatusOK, resultReply{Done: c.remaining == 0, Duplicate: true})
		return
	}
	c.resolved[req.Index] = true
	c.results[req.Index] = req.Payload
	c.taskErrs[req.Index] = req.Error
	if c.rec != nil {
		c.rec.taskResolved(req.Index, req.Events)
	}
	if req.Error != "" {
		c.failed++
	}
	c.remaining--
	// Drop the index from every lease covering it (its own, plus any
	// reassignment replicas) so later expiries cannot requeue it.
	for _, l := range c.leases {
		delete(l.pending, req.Index)
	}
	if c.journal != nil {
		entry := stateEntry{Index: req.Index, Payload: req.Payload, Error: req.Error}
		if c.rec != nil {
			// Events only matter to a journal when a trace is being
			// merged; keep resume files lean otherwise.
			entry.Events = req.Events
		}
		// The append must stay ordered with the state transition it
		// records: releasing mu first would let two handlers interleave
		// journal lines out of commit order, breaking crash-resume
		// replay. The write is one small line to a local O_APPEND file.
		//lint:waive lockhold -- journal appends must stay ordered with the state transition they record; an unlocked append could interleave entries across handlers and corrupt resume
		if err := c.journal.append(entry); err != nil {
			// Journaling is best-effort resume support; the in-memory run
			// still completes. Stop journaling rather than failing tasks.
			c.logf("dist: state journal write failed (%v); resume disabled for this run", err)
			//lint:waive lockhold -- closing the failed journal is part of the same ordered transition; the handle is local disk, not network
			c.journal.close()
			c.journal = nil
		}
	}
	resultsTotal.Inc(req.Worker)
	if c.remaining == 0 {
		close(c.done)
		c.logf("dist: job %q complete (%d tasks)", c.cfg.Spec.Kind, c.cfg.Spec.NumTasks)
	}
	writeJSON(w, http.StatusOK, resultReply{Done: c.remaining == 0})
}

func (c *Coordinator) handleArtifact(w http.ResponseWriter, r *http.Request) {
	sha := r.PathValue("sha")
	path, ok := c.cfg.ArtifactPaths[sha]
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown artifact " + sha})
		return
	}
	http.ServeFile(w, r, path)
}

func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Progress())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before touching the ResponseWriter: once WriteHeader runs
	// the status is committed, and a mid-body Encode failure would leave
	// the worker a truncated reply under a 200.
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A short write means the peer hung up; it sees its own error.
	_, _ = w.Write(append(body, '\n'))
}
