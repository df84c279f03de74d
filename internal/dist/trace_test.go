package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nnwc/internal/obs"
)

// tracingToyRunner emits a deterministic per-task event through the
// context trace, the way the real job runners do.
func tracingToyRunner(ctx context.Context, env Env, spec Spec, index int) (json.RawMessage, error) {
	if tr := obs.TraceFromContext(ctx); tr.Enabled() {
		tr.Emit("toy_task", obs.Int("index", index))
	}
	return toyRunner(ctx, env, spec, index)
}

// runClusterJob completes one toy job with `workers` in-process workers
// and returns the raw bytes of the merged cluster trace.
func runClusterJob(t *testing.T, workers, n int) []byte {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), ClusterTraceFileName)
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec:             toySpec(n),
		LeaseSize:        2,
		PollInterval:     5 * time.Millisecond,
		LingerAfterDone:  3 * time.Second,
		ClusterTraceFile: tracePath,
	})
	runners := map[string]Runner{"toy": tracingToyRunner}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := NewWorker(WorkerConfig{
				Coordinator: c.Addr(),
				ID:          fmt.Sprintf("trace-w%d", i),
				CacheDir:    t.TempDir(),
				Runners:     runners,
				BackoffMin:  5 * time.Millisecond,
				BackoffMax:  50 * time.Millisecond,
			})
			if err == nil {
				err = w.Run(context.Background())
			}
			errs[i] = err
		}(i)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("cluster trace not written: %v", err)
	}
	return raw
}

func TestClusterTraceDeterministicAcrossWorkerCounts(t *testing.T) {
	const n = 9
	var canon [][]byte
	for _, workers := range []int{1, 2, 8} {
		raw := runClusterJob(t, workers, n)
		// The raw trace keeps the wall-clock narrative the timeline needs.
		for _, want := range []string{`"ev":"cluster_job"`, `"ev":"dist_lease"`, `"ev":"dist_task"`, `"ev":"cluster_done"`} {
			if !strings.Contains(string(raw), want) {
				t.Fatalf("%d-worker raw trace missing %s:\n%s", workers, want, raw)
			}
		}
		c, err := obs.CanonicalizeJSONL(raw)
		if err != nil {
			t.Fatal(err)
		}
		canon = append(canon, c)
	}
	if !bytes.Equal(canon[0], canon[1]) || !bytes.Equal(canon[1], canon[2]) {
		t.Fatalf("canonical cluster traces differ across worker counts:\n1w:\n%s\n2w:\n%s\n8w:\n%s", canon[0], canon[1], canon[2])
	}
	// Task blocks appear in index order: runner event then the closing
	// dist_task span, per index.
	lines := strings.Split(strings.TrimSpace(string(canon[0])), "\n")
	var taskLines []string
	for _, l := range lines {
		if strings.Contains(l, "toy_task") {
			taskLines = append(taskLines, l)
		}
	}
	if len(taskLines) != n {
		t.Fatalf("canonical trace has %d toy_task lines, want %d:\n%s", len(taskLines), n, canon[0])
	}
	for i, l := range taskLines {
		if want := fmt.Sprintf(`{"ev":"toy_task","index":%d}`, i); l != want {
			t.Fatalf("task line %d = %s, want %s", i, l, want)
		}
	}
}

func TestClusterTraceSurvivesReassignment(t *testing.T) {
	// Reference: a clean single-worker run of the same spec.
	want, err := obs.CanonicalizeJSONL(runClusterJob(t, 1, 3))
	if err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(t.TempDir(), ClusterTraceFileName)
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec:             toySpec(3),
		LeaseSize:        3,
		LeaseTTL:         50 * time.Millisecond,
		PollInterval:     5 * time.Millisecond,
		LingerAfterDone:  3 * time.Second,
		ClusterTraceFile: tracePath,
	})
	client := &http.Client{Timeout: 5 * time.Second}
	// A worker takes the whole job and dies without delivering anything.
	var dead leaseReply
	postJSONT(t, client, "http://"+c.Addr()+"/dist/lease", leaseRequest{Worker: "doomed"}, &dead)
	if dead.LeaseID == 0 {
		t.Fatal("no lease granted")
	}
	time.Sleep(80 * time.Millisecond)

	w, err := NewWorker(WorkerConfig{
		Coordinator: c.Addr(),
		ID:          "healthy",
		CacheDir:    t.TempDir(),
		Runners:     map[string]Runner{"toy": tracingToyRunner},
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"ev":"dist_reassign"`) {
		t.Fatalf("raw trace records no reassignment:\n%s", raw)
	}
	got, err := obs.CanonicalizeJSONL(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical trace after reassignment differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestClusterTraceNotWrittenOnCancel(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), ClusterTraceFileName)
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec:             toySpec(4),
		ClusterTraceFile: tracePath,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Wait(ctx); err == nil {
		t.Fatal("Wait on a canceled context should error")
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Fatalf("canceled run wrote a cluster trace (stat err: %v)", err)
	}
}

func TestClusterTraceResumesFromJournal(t *testing.T) {
	dir := t.TempDir()
	state := filepath.Join(dir, StateFileName)
	tracePath := filepath.Join(dir, ClusterTraceFileName)
	spec := toySpec(4)

	// Phase 1: two tasks land (with worker-shipped events), then the
	// coordinator dies before completion. No trace yet.
	c1 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, LeaseSize: 4, StateFile: state, ClusterTraceFile: tracePath})
	client := &http.Client{Timeout: 5 * time.Second}
	base := "http://" + c1.Addr()
	var lr leaseReply
	postJSONT(t, client, base+"/dist/lease", leaseRequest{Worker: "w1"}, &lr)
	for i := 0; i < 2; i++ {
		payload, _ := toyRunner(context.Background(), nil, spec, i)
		events := fmt.Sprintf("{\"ev\":\"toy_task\",\"index\":%d}\n", i)
		var rr resultReply
		postJSONT(t, client, base+"/dist/result", resultRequest{LeaseID: lr.LeaseID, Worker: "w1", Index: i, Payload: payload, Events: events}, &rr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c1.Wait(ctx) // tears down; job incomplete, so no trace is written
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Fatal("incomplete run wrote a cluster trace")
	}

	// Phase 2: a restarted coordinator resumes the journal and a real
	// worker finishes the rest; the merged trace must carry all 4 blocks.
	c2 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, LeaseSize: 4, StateFile: state, ClusterTraceFile: tracePath, LingerAfterDone: 3 * time.Second, PollInterval: 5 * time.Millisecond})
	w, err := NewWorker(WorkerConfig{
		Coordinator: c2.Addr(),
		ID:          "resume-w",
		CacheDir:    t.TempDir(),
		Runners:     map[string]Runner{"toy": tracingToyRunner},
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := c2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		// Journaled blocks have no timestamp; live ones do. Match the tail.
		block := fmt.Sprintf(`"ev":"toy_task","index":%d}`, i)
		if !strings.Contains(string(raw), block) {
			t.Fatalf("merged trace missing task %d's journaled/shipped events:\n%s", i, raw)
		}
	}
}

func TestCoordinatorMetricsFederation(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec:            toySpec(6),
		LeaseSize:       1, // several lease renewals → several snapshot pushes
		PollInterval:    5 * time.Millisecond,
		LingerAfterDone: 3 * time.Second,
	})
	w, err := NewWorker(WorkerConfig{
		Coordinator: c.Addr(),
		ID:          "fed-w1",
		CacheDir:    t.TempDir(),
		Runners:     map[string]Runner{"toy": toyRunner},
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	// The worker's final lease poll (the one answered Done) carried its
	// cumulative task histogram; /metrics must expose both the per-worker
	// cell and the merged cluster series.
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, `nnwc_dist_worker_task_ms_hist_count{worker="fed-w1"} 6`) {
		t.Fatalf("per-worker federated histogram missing from /metrics:\n%s", body)
	}
	if !strings.Contains(body, "nnwc_cluster_task_ms_hist_bucket") {
		t.Fatalf("merged cluster histogram missing from /metrics:\n%s", body)
	}
	// The federated histogram is the one task-time series.
	for _, gone := range []string{"nnwc_dist_task_ms", " summary\n"} {
		if strings.Contains(body, gone) {
			t.Fatalf("/metrics still carries %q:\n%s", gone, body)
		}
	}
}
