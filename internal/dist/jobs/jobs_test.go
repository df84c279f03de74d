package jobs

// Multi-process distribution tests: the test binary re-executes itself as
// worker processes (keyed on the NNWC_DIST_WORKER environment variable),
// so the parity and fault tests exercise real process boundaries — HTTP
// transport, artifact fetch over the wire, SIGKILL mid-lease — not
// goroutine stand-ins.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/dist"
	"nnwc/internal/rng"
	"nnwc/internal/workload"
)

func TestMain(m *testing.M) {
	if url := os.Getenv("NNWC_DIST_WORKER"); url != "" {
		runTestWorker(url)
		return
	}
	os.Exit(m.Run())
}

// runTestWorker is the child-process entry point: a real jobs worker plus
// a "sleep" toy runner the fault tests use for timing-robust kills.
func runTestWorker(url string) {
	runners := Runners()
	runners["sleep"] = sleepRunner
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: url,
		CacheDir:    os.Getenv("NNWC_DIST_CACHE"),
		Runners:     runners,
		Parallelism: 1,
		BackoffMin:  10 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
		WaitForJob:  30 * time.Second,
		GiveUp:      30 * time.Second,
	})
	if err == nil {
		err = w.Run(context.Background())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// sleepRunner completes quickly — unless this worker was started with
// NNWC_DIST_HANG and the index is past the configured threshold, in which
// case it wedges, simulating a worker that stops making progress while
// holding a lease.
func sleepRunner(ctx context.Context, env dist.Env, spec dist.Spec, index int) (json.RawMessage, error) {
	var cfg struct {
		HangFrom int `json:"hang_from"`
	}
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return nil, err
	}
	if os.Getenv("NNWC_DIST_HANG") != "" && index >= cfg.HangFrom {
		select {} // wedge until SIGKILL
	}
	time.Sleep(5 * time.Millisecond)
	return json.Marshal(map[string]int{"i": index})
}

// spawnWorker starts this test binary as a worker child process. The
// returned process is reaped (and killed if still alive) at test cleanup.
func spawnWorker(t *testing.T, url string, extraEnv ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"NNWC_DIST_WORKER="+url,
		"NNWC_DIST_CACHE="+t.TempDir(),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

// waitProgress polls the coordinator's /dist/progress endpoint until at
// least want tasks have completed.
func waitProgress(t *testing.T, addr string, want int) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/dist/progress")
		if err == nil {
			var p dist.Progress
			err = json.NewDecoder(resp.Body).Decode(&p)
			resp.Body.Close()
			if err == nil && p.Completed >= want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never reached %d completed tasks", want)
}

// waitLeases polls c until it has granted at least want leases. The
// fault tests' wedging worker completes its first lease (tasks 0-1) and
// hangs inside its second (tasks 2-3), so waiting for two grants before
// the SIGKILL makes the kill land while that lease is held; killed any
// earlier it may hold none, and nothing would be reassigned.
func waitLeases(t *testing.T, c *dist.Coordinator, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if c.CoordStats().Leases >= want {
			return
		}
	}
	t.Fatalf("coordinator never granted %d leases", want)
}

// The seed-reference constants from internal/core/seedref_test.go: the
// pinned Table-2 numbers for CrossValidate(syntheticDataset(120,42),
// fastConfig(), 4, 7). The distributed plane must land on the same bits.
const (
	seedRefAvg0    = 0.0027368722195466755
	seedRefAvg1    = 0.0022901977227838028
	seedRefOverall = 0.0025135349711652389
)

// writeParityCSV materializes the seed-reference synthetic dataset
// (core_test.go's syntheticDataset(120, 42)) as a CSV artifact. WriteCSV
// prints shortest-round-trip decimals, so the bytes reload exactly.
func writeParityCSV(t *testing.T) string {
	t.Helper()
	src := rng.New(42)
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < 120; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		ds.MustAppend(workload.Sample{
			X: []float64{a, b},
			Y: []float64{10 + 3*a*a - b, 5 + math.Sin(a) + 2*b},
		})
	}
	path := filepath.Join(t.TempDir(), "parity.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// serialReference computes the in-process cross-validation the distributed
// run must reproduce, from the same CSV bytes the workers fetch.
func serialReference(t *testing.T, csvPath string) *core.CVResult {
	t.Helper()
	f, err := os.Open(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := workload.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ModelConfig("10", 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := core.CrossValidate(ds, cfg, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	return cv
}

// requireBitIdentical fails unless two CV results agree to the last bit —
// the distribution invariant is bytes, not tolerance.
func requireBitIdentical(t *testing.T, serial, distributed *core.CVResult) {
	t.Helper()
	if len(distributed.Trials) != len(serial.Trials) {
		t.Fatalf("trial count %d != %d", len(distributed.Trials), len(serial.Trials))
	}
	for i := range serial.Trials {
		for j := range serial.Trials[i].Errors {
			a, b := serial.Trials[i].Errors[j], distributed.Trials[i].Errors[j]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("trial %d indicator %d: %.17g != %.17g", i, j, b, a)
			}
		}
	}
	for j := range serial.Averages {
		a, b := serial.Averages[j], distributed.Averages[j]
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("avg[%d]: %.17g != %.17g", j, b, a)
		}
	}
	if math.Float64bits(serial.OverallError()) != math.Float64bits(distributed.OverallError()) {
		t.Fatalf("overall: %.17g != %.17g", distributed.OverallError(), serial.OverallError())
	}
}

// TestDistCrossvalParity is the acceptance pin: a coordinator and two
// worker processes reproduce the serial seed-reference cross-validation
// byte-for-byte, and both agree with the pinned constants to 1e-9.
func TestDistCrossvalParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process parity test")
	}
	csvPath := writeParityCSV(t)
	serial := serialReference(t, csvPath)

	opt := Options{
		Addr:      "127.0.0.1:0",
		JobID:     "parity-test",
		LeaseSize: 1,
		OnStart: func(addr string) {
			spawnWorker(t, addr)
			spawnWorker(t, addr)
		},
	}
	cv, stats, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "10", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, serial, cv)
	for j, want := range []float64{seedRefAvg0, seedRefAvg1} {
		if math.Abs(cv.Averages[j]-want) > 1e-9 {
			t.Fatalf("avg[%d] = %.17g, seed reference %.17g", j, cv.Averages[j], want)
		}
	}
	if got := cv.OverallError(); math.Abs(got-seedRefOverall) > 1e-9 {
		t.Fatalf("overall = %.17g, seed reference %.17g", got, seedRefOverall)
	}
	if stats.Leases == 0 {
		t.Fatal("no leases recorded")
	}
}

// TestDistCrossvalKillAndRestartWorker kills a worker process mid-run and
// replaces it; the reassigned tasks must still land on the serial bits.
func TestDistCrossvalKillAndRestartWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fault test")
	}
	csvPath := writeParityCSV(t)
	serial := serialReference(t, csvPath)

	opt := Options{
		Addr:      "127.0.0.1:0",
		JobID:     "kill-restart-test",
		LeaseSize: 1,
		LeaseTTL:  time.Second,
		StateFile: filepath.Join(t.TempDir(), dist.StateFileName),
		OnStart: func(addr string) {
			victim := spawnWorker(t, addr)
			go func() {
				waitProgress(t, addr, 1)
				victim.Process.Kill()
				victim.Wait()
				spawnWorker(t, addr)
			}()
		},
	}
	cv, _, err := CoordinateCrossval(context.Background(), opt, csvPath, 4, "10", 800, 7)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, serial, cv)
}

// TestDistWorkerKilledMidLease pins the reassignment machinery itself:
// a wedged worker is SIGKILLed while holding a lease, the lease expires,
// and a healthy replacement finishes the job.
func TestDistWorkerKilledMidLease(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fault test")
	}
	const n = 6
	cfg, err := json.Marshal(map[string]int{"hang_from": 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := dist.NewCoordinator(dist.CoordinatorConfig{
		Addr: "127.0.0.1:0",
		Spec: dist.Spec{
			JobID:    "kill-test",
			Kind:     "sleep",
			Seed:     1,
			NumTasks: n,
			Config:   cfg,
		},
		LeaseSize:    2,
		LeaseTTL:     300 * time.Millisecond,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}

	// The wedging worker completes tasks 0 and 1, then hangs on task 2
	// while holding its lease. Kill it once that lease is granted.
	victim := spawnWorker(t, c.Addr(), "NNWC_DIST_HANG=1")
	waitLeases(t, c, 2)
	victim.Process.Kill()
	victim.Wait()

	spawnWorker(t, c.Addr())
	payloads, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != n {
		t.Fatalf("got %d payloads, want %d", len(payloads), n)
	}
	for i, p := range payloads {
		var got struct {
			I int `json:"i"`
		}
		if err := json.Unmarshal(p, &got); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if got.I != i {
			t.Fatalf("payload %d carries index %d", i, got.I)
		}
	}
	if st := c.CoordStats(); st.Reassigned == 0 {
		t.Fatal("no tasks were reassigned after the kill")
	}
}
