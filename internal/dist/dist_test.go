package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nnwc/internal/obs"
)

// toySpec is a minimal job: NumTasks indexes, no artifacts; the toy runner
// returns a payload derived purely from the index.
func toySpec(n int) Spec {
	return Spec{JobID: "test-run", Kind: "toy", Seed: 11, NumTasks: n}
}

func toyRunner(ctx context.Context, env Env, spec Spec, index int) (json.RawMessage, error) {
	return json.Marshal(map[string]Floats{"v": {float64(index) * 1.5, float64(spec.Seed)}})
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.LingerAfterDone == 0 {
		cfg.LingerAfterDone = time.Millisecond
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	return c
}

func newTestWorker(t *testing.T, coordinator string, runners map[string]Runner) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: coordinator,
		ID:          "test-worker",
		CacheDir:    t.TempDir(),
		Runners:     runners,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
		WaitForJob:  10 * time.Second,
		GiveUp:      10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSpecFingerprintIgnoresJobID(t *testing.T) {
	a := toySpec(4)
	b := toySpec(4)
	b.JobID = "a-different-run"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint should not depend on JobID")
	}
	c := toySpec(4)
	c.Seed++
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint must depend on the seed")
	}
	d := toySpec(5)
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint must depend on the task count")
	}
}

func TestFloatWireRoundTrip(t *testing.T) {
	in := Floats{0.1 + 0.2, math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e-308, seedLike()}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Floats
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("length %d != %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
			t.Fatalf("element %d: %x != %x", i, math.Float64bits(in[i]), math.Float64bits(out[i]))
		}
	}
}

// seedLike is an awkward value with a long shortest-form decimal.
func seedLike() float64 { return 0.0027368722195466755 }

func TestCoordinatorTwoWorkersCompleteInOrder(t *testing.T) {
	const n = 13
	// A real linger window: this test asserts both workers exit cleanly,
	// which requires the listener to stay up until they observe Done.
	c := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(n), LeaseSize: 2, PollInterval: 5 * time.Millisecond, LingerAfterDone: 3 * time.Second})
	runners := map[string]Runner{"toy": toyRunner}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newTestWorker(t, c.Addr(), runners)
			errs[i] = w.Run(context.Background())
		}(i)
	}
	payloads, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if len(payloads) != n {
		t.Fatalf("got %d payloads, want %d", len(payloads), n)
	}
	for i, p := range payloads {
		want, _ := toyRunner(context.Background(), nil, toySpec(n), i)
		if string(p) != string(want) {
			t.Fatalf("payload %d = %s, want %s", i, p, want)
		}
	}
	if st := c.CoordStats(); st.Leases == 0 {
		t.Fatal("no leases recorded")
	}
}

func TestTaskErrorReportsLowestIndex(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(6), LeaseSize: 2})
	runner := func(ctx context.Context, env Env, spec Spec, index int) (json.RawMessage, error) {
		if index == 2 || index == 4 {
			return nil, fmt.Errorf("task %d is deterministically broken", index)
		}
		return toyRunner(ctx, env, spec, index)
	}
	w := newTestWorker(t, c.Addr(), map[string]Runner{"toy": runner})
	go w.Run(context.Background())
	_, err := c.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "dist: task 2:") {
		t.Fatalf("want lowest-index task error, got %v", err)
	}
}

func TestDuplicateResultDeliveryIsIdempotent(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(2), LeaseSize: 2})
	defer c.Wait(context.Background())
	base := "http://" + c.Addr()
	client := &http.Client{Timeout: 5 * time.Second}

	var lr leaseReply
	postJSONT(t, client, base+"/dist/lease", leaseRequest{Worker: "w1"}, &lr)
	if lr.LeaseID == 0 || lr.Lo != 0 || lr.Hi != 2 {
		t.Fatalf("unexpected lease %+v", lr)
	}
	payload, _ := toyRunner(context.Background(), nil, toySpec(2), 0)
	req := resultRequest{LeaseID: lr.LeaseID, Worker: "w1", Index: 0, Payload: payload}
	var first, second resultReply
	postJSONT(t, client, base+"/dist/result", req, &first)
	postJSONT(t, client, base+"/dist/result", req, &second)
	if first.Duplicate {
		t.Fatal("first delivery flagged duplicate")
	}
	if !second.Duplicate {
		t.Fatal("second delivery not flagged duplicate")
	}
	if st := c.CoordStats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
	// Finish the job so Wait in the deferred call returns. The body is an
	// older worker's, still carrying the removed elapsed_ms field: results
	// decode leniently, so mixed-version clusters keep working.
	payload1, _ := toyRunner(context.Background(), nil, toySpec(2), 1)
	var rr resultReply
	postJSONT(t, client, base+"/dist/result", map[string]any{
		"lease_id": lr.LeaseID, "worker": "w1", "index": 1, "payload": payload1, "elapsed_ms": 12.5,
	}, &rr)
	if !rr.Done {
		t.Fatal("final result did not report done")
	}
}

func TestExpiredLeaseIsReassigned(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		Spec:      toySpec(3),
		LeaseSize: 3,
		LeaseTTL:  50 * time.Millisecond,
	})
	base := "http://" + c.Addr()
	client := &http.Client{Timeout: 5 * time.Second}

	// A worker takes the whole job and dies silently.
	var dead leaseReply
	postJSONT(t, client, base+"/dist/lease", leaseRequest{Worker: "doomed"}, &dead)
	if dead.LeaseID == 0 {
		t.Fatal("no lease granted")
	}
	time.Sleep(80 * time.Millisecond)

	// The next lease request reclaims and re-grants the same indexes.
	var next leaseReply
	postJSONT(t, client, base+"/dist/lease", leaseRequest{Worker: "healthy"}, &next)
	if next.LeaseID == 0 || next.Lo != 0 || next.Hi != 3 {
		t.Fatalf("reclaimed lease = %+v, want [0,3)", next)
	}
	if st := c.CoordStats(); st.Reassigned != 3 {
		t.Fatalf("Reassigned = %d, want 3", st.Reassigned)
	}

	// Late delivery from the dead lease still lands (first write wins).
	for i := 0; i < 3; i++ {
		payload, _ := toyRunner(context.Background(), nil, toySpec(3), i)
		var rr resultReply
		postJSONT(t, client, base+"/dist/result", resultRequest{LeaseID: dead.LeaseID, Worker: "doomed", Index: i, Payload: payload}, &rr)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRetriesTransientErrors fronts the coordinator with a proxy
// that fails every other request; the worker's backoff must ride through.
func TestWorkerRetriesTransientErrors(t *testing.T) {
	// Linger long enough after completion for the worker to observe the
	// Done reply through its retry/backoff loop.
	c := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(4), LeaseSize: 1, LingerAfterDone: 3 * time.Second})
	target, err := url.Parse("http://" + c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var mu sync.Mutex
	calls := 0
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		fail := calls%2 == 1
		mu.Unlock()
		if fail {
			http.Error(w, "transient outage", http.StatusInternalServerError)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	w := newTestWorker(t, flaky.URL, map[string]Runner{"toy": toyRunner})
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

func TestWorkerRejects4xxAsPermanent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such job", http.StatusNotFound)
	}))
	defer srv.Close()
	w := newTestWorker(t, srv.URL, map[string]Runner{"toy": toyRunner})
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("want error from 404 coordinator")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("4xx should fail fast, took %s", elapsed)
	}
}

func TestArtifactFetchVerifiesAndCaches(t *testing.T) {
	dir := t.TempDir()
	content := []byte("rate,threads\n480,8\n")
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	sha := obs.HashBytes(content)
	spec := toySpec(1)
	spec.Artifacts = map[string]string{"dataset": sha}
	c := newTestCoordinator(t, CoordinatorConfig{Spec: spec, ArtifactPaths: map[string]string{sha: path}})
	w := newTestWorker(t, c.Addr(), map[string]Runner{"toy": toyRunner})

	got, err := w.ArtifactPath(context.Background(), sha)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(content) {
		t.Fatalf("artifact bytes differ: %q", b)
	}
	again, err := w.ArtifactPath(context.Background(), sha)
	if err != nil || again != got {
		t.Fatalf("cache miss on second fetch: %s, %v", again, err)
	}
	if _, err := w.ArtifactPath(context.Background(), obs.HashBytes([]byte("unknown"))); err == nil {
		t.Fatal("unknown artifact should error")
	}
	// Finish the job so the listener closes.
	go func() {
		spec := toySpec(1)
		payload, _ := toyRunner(context.Background(), nil, spec, 0)
		client := &http.Client{Timeout: 5 * time.Second}
		var lr leaseReply
		postJSONT(t, client, "http://"+c.Addr()+"/dist/lease", leaseRequest{Worker: "w"}, &lr)
		var rr resultReply
		postJSONT(t, client, "http://"+c.Addr()+"/dist/result", resultRequest{LeaseID: lr.LeaseID, Worker: "w", Index: 0, Payload: payload}, &rr)
	}()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestResumeFromStateJournal(t *testing.T) {
	state := filepath.Join(t.TempDir(), StateFileName)
	spec := toySpec(5)

	c1 := newTestCoordinator(t, CoordinatorConfig{Spec: spec, StateFile: state, LeaseSize: 2})
	w := newTestWorker(t, c1.Addr(), map[string]Runner{"toy": toyRunner})
	go w.Run(context.Background())
	first, err := c1.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Restart: same spec, same journal — nothing left to compute, and the
	// payloads come back byte-identical without any worker at all.
	c2, err := NewCoordinator(CoordinatorConfig{Addr: "127.0.0.1:0", Spec: spec, StateFile: state})
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.CoordStats(); st.Resumed != 5 {
		t.Fatalf("Resumed = %d, want 5", st.Resumed)
	}
	second, err := c2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if string(first[i]) != string(second[i]) {
			t.Fatalf("resumed payload %d differs: %s vs %s", i, first[i], second[i])
		}
	}

	sum, err := ReadStateSummary(state)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != "toy" || sum.Completed != 5 || sum.Failed != 0 || sum.Total != 5 {
		t.Fatalf("bad summary %+v", sum)
	}
}

func TestStateJournalRejectsDifferentJob(t *testing.T) {
	state := filepath.Join(t.TempDir(), StateFileName)
	c1 := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(2), StateFile: state, LeaseSize: 2})
	w := newTestWorker(t, c1.Addr(), map[string]Runner{"toy": toyRunner})
	go w.Run(context.Background())
	if _, err := c1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	other := toySpec(2)
	other.Seed++
	if _, err := NewCoordinator(CoordinatorConfig{Addr: "127.0.0.1:0", Spec: other, StateFile: state}); err == nil {
		t.Fatal("journal from a different job must be rejected")
	} else if !strings.Contains(err.Error(), "different job") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func postJSONT(t *testing.T, client *http.Client, url string, in, out any) {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactPathConcurrentFetch pins the ArtifactPath locking contract:
// artMu guards only the in-memory path map, so concurrent resolutions of
// the same artifact must neither race nor serialize behind one download,
// and every caller must end up with the same verified bytes. (Before the
// fix the mutex was held across the HTTP fetch, so one slow artifact
// stalled every other resolution in the process.)
func TestArtifactPathConcurrentFetch(t *testing.T) {
	dir := t.TempDir()
	content := []byte("rate,threads\n480,8\n560,16\n")
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	sha := obs.HashBytes(content)
	spec := toySpec(1)
	spec.Artifacts = map[string]string{"dataset": sha}
	c := newTestCoordinator(t, CoordinatorConfig{Spec: spec, ArtifactPaths: map[string]string{sha: path}})
	w := newTestWorker(t, c.Addr(), map[string]Runner{"toy": toyRunner})

	const callers = 8
	paths := make([]string, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths[i], errs[i] = w.ArtifactPath(context.Background(), sha)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		b, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(content) {
			t.Fatalf("caller %d: artifact bytes differ: %q", i, b)
		}
	}
	go w.Run(context.Background())
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorCloseConcurrentProgress pins the close() locking fix:
// shutdown detaches the journal and recorder under c.mu but performs the
// file I/O after releasing it, so status reads racing a shutdown can
// neither deadlock behind a disk flush nor observe torn state. The
// pollers deliberately keep hammering Progress/CoordStats through the
// linger window in which close() runs.
func TestCoordinatorCloseConcurrentProgress(t *testing.T) {
	state := filepath.Join(t.TempDir(), StateFileName)
	c := newTestCoordinator(t, CoordinatorConfig{Spec: toySpec(8), StateFile: state, LeaseSize: 2})
	w := newTestWorker(t, c.Addr(), map[string]Runner{"toy": toyRunner})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = c.Progress()
					_ = c.CoordStats()
				}
			}
		}()
	}
	go w.Run(context.Background())
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // overlap the pollers with the post-Wait close
	close(stop)
	wg.Wait()
}
