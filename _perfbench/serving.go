package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"nnwc/internal/core"
	"nnwc/internal/rng"
	"nnwc/internal/serve"
	"nnwc/internal/workload"
)

// Serving limits and load levels.
const (
	latencyLimitMs = 10.0 // p90 limit a ladder rung must meet
	ladderRungReqs = 100  // requests per rung: p90 with 10 samples beyond it
	ladderRefine   = 3    // bisections after the ladder: 50/2^3 req/s resolution
	latencyWindow  = 200  // requests per window of the reported percentiles
	lowRate        = 200.0
	highRate       = 700.0
	fleetRate      = 400.0
)

// rowPool draws n configuration rows inside the quick sweep's envelope,
// the region the served models were trained on.
func rowPool(seed uint64, n int) [][]float64 {
	sw := quickContext("", 0, 0).Sweep
	src := rng.New(seed + 7)
	pick := func(xs []int) float64 {
		lo, hi := slices.Min(xs), slices.Max(xs)
		return float64(lo + src.Intn(hi-lo+1))
	}
	rows := make([][]float64, n)
	for i := range rows {
		rate := src.Uniform(slices.Min(sw.InjectionRates), slices.Max(sw.InjectionRates))
		rows[i] = []float64{rate, pick(sw.DefaultThreads), pick(sw.MfgThreads), pick(sw.WebThreads)}
	}
	return rows
}

// served is a started prediction server with one keep-alive client per
// load-generator connection.
type served struct {
	srv     *serve.Server
	base    string
	clients []*http.Client
}

// startServer starts serve.New(cfg) with the `nnwc serve` batching
// defaults on a loopback port.
func startServer(cfg serve.Config, conns int) (*served, error) {
	cfg.Addr = "127.0.0.1:0"
	cfg.MaxBatch = 64
	cfg.MaxWait = 2 * time.Millisecond
	cfg.Workers = conns
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	s := &served{srv: srv, base: "http://" + srv.Addr()}
	for i := 0; i < conns; i++ {
		s.clients = append(s.clients, &http.Client{
			Timeout:   10 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return s, nil
}

// close shuts the server down and waits for its listener to stop.
func (s *served) close() error {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	ctx, cancel := deadlineCtx(10 * time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if werr := s.srv.Wait(); err == nil {
		err = werr
	}
	return err
}

// post sends body to path on connection w and decodes the 200 reply into
// v, rejecting unknown fields.
func (s *served) post(w int, path string, body []byte, v any) error {
	resp, err := s.clients[w].Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// request is one prepared call: a /predict of a row under a model ref, or
// an /observe of a measured sample.
type request struct {
	observe bool
	pinned  bool
	ref     string // model ref sent
	want    string // instance ref that must answer
	row     int    // index into the row pool (predict)
	sample  int    // index into the dataset (observe)
	body    []byte
}

// answers maps an instance ref ("w3@v2") to its model's prediction for
// every pool row, computed with core.NNModel.Predict on the artifact.
type answers map[string][][]float64

func (a answers) add(ref, path string, rows [][]float64) error {
	m, err := core.LoadModelFile(path)
	if err != nil {
		return err
	}
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = m.Predict(r)
	}
	a[ref] = out
	return nil
}

// checkPredict reports whether a /predict reply is the reference answer.
func (a answers) checkPredict(req request, resp serve.PredictResponse) bool {
	return resp.Model.Ref == req.want && len(resp.Predictions) == 1 &&
		sameBits(resp.Predictions[0], a[req.want][req.row])
}

// doHTTP sends req on connection w and checks the reply.
func doHTTP(s *served, a answers, req request, w int) (bool, error) {
	if req.observe {
		var resp serve.ObserveResponse
		if err := s.post(w, "/observe", req.body, &resp); err != nil {
			return false, err
		}
		return resp.Tenant == req.ref, nil
	}
	var resp serve.PredictResponse
	if err := s.post(w, "/predict", req.body, &resp); err != nil {
		return false, err
	}
	return a.checkPredict(req, resp), nil
}

// doInproc sends req through the server's in-process API, bypassing
// HTTP: Server.PredictRef, or the deployment controller's Observe.
func doInproc(ctx context.Context, s *served, a answers, ds *workload.Dataset, rows [][]float64, req request) (bool, error) {
	if req.observe {
		smp := ds.Samples[req.sample]
		_, err := s.srv.Controller().Observe(req.ref, smp.X, smp.Y)
		return err == nil, err
	}
	got, err := s.srv.PredictRef(ctx, req.ref, rows[req.row])
	if err != nil {
		return false, err
	}
	return sameBits(got, a[req.want][req.row]), nil
}

// phase runs one open-loop phase of reqs at their schedule over HTTP,
// or through the in-process API when inproc is set, recording one span
// per request when tracing.
func phase(e *env, s *served, a answers, ds *workload.Dataset, rows [][]float64, schedule []time.Duration, reqs []request, inproc bool, name string) openResult {
	ctx, cancel := deadlineCtx(e.seconds + time.Minute)
	defer cancel()
	return openLoop(ctx, schedule, len(s.clients), func(w, i int) (bool, error) {
		id := e.rec.begin(name, 0, int64(i+1))
		defer e.rec.end(id)
		req := reqs[i%len(reqs)]
		if inproc {
			return doInproc(ctx, s, a, ds, rows, req)
		}
		return doHTTP(s, a, req, w)
	})
}

// predictBody encodes a single-row /predict request.
func predictBody(ref string, x []float64) []byte {
	b, _ := json.Marshal(serve.PredictRequest{Model: ref, X: x}) // plain floats and a string always encode
	return b
}

// ---- serve-predict ----

// predictFixture is the single-tenant server of serve-predict.
type predictFixture struct {
	s       *served
	answers answers
	model   *core.NNModel
}

// setupPredict trains the 4-16-5 model on the quick dataset, persists it,
// starts the server on it and warms each connection up.
func setupPredict(e *env, ds *workload.Dataset, rows [][]float64, n int) (*predictFixture, error) {
	cfg := quickContext("", e.seed, e.nproc).Model
	model, err := core.Fit(ds, cfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.tmp, fmt.Sprintf("predict-%d.json", n))
	if err := model.SaveFile(path); err != nil {
		return nil, err
	}
	f := &predictFixture{answers: answers{}}
	if f.model, err = core.LoadModelFile(path); err != nil {
		return nil, err
	}
	s, err := startServer(serve.Config{ModelPath: path}, e.nproc)
	if err != nil {
		return nil, err
	}
	f.s = s
	want := serve.DefaultSingleTenant + "@v1"
	if err := f.answers.add(want, path, rows); err != nil {
		s.close()
		return nil, err
	}
	for w := range s.clients {
		for i := 0; i < 4; i++ {
			if ok, err := doHTTP(s, f.answers, predictReq(want, rows, i), w); err != nil || !ok {
				s.close()
				return nil, fmt.Errorf("warm-up request failed: ok=%v err=%v", ok, err)
			}
		}
	}
	return f, nil
}

func predictReq(want string, rows [][]float64, row int) request {
	return request{ref: "", want: want, row: row, body: predictBody("", rows[row])}
}

// predictRequests draws n single-row requests for the default tenant.
func predictRequests(seed uint64, rows [][]float64, n int) []request {
	src := rng.New(seed + 11)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = predictReq(serve.DefaultSingleTenant+"@v1", rows, src.Intn(len(rows)))
	}
	return reqs
}

// setupReps is how often a server's set-up runs per run; its median is
// setup_s.
const setupReps = 3

// setupRepeated runs setup setupReps times, keeping the last fixture and
// closing the servers of the others, and returns each set-up's seconds.
func setupRepeated[T any](setup func(n int) (T, error), server func(T) *served) (T, []float64, error) {
	var f T
	var secs []float64
	for n := 0; n < setupReps; n++ {
		t := time.Now()
		next, err := setup(n)
		if err != nil {
			if n > 0 {
				_ = server(f).close() // the set-up error is the one to report
			}
			return f, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if n > 0 {
			if err := server(f).close(); err != nil {
				_ = server(next).close() // the first close error is the one to report
				return f, nil, err
			}
		}
		f = next
	}
	return f, secs, nil
}

// runServePredict: open loop with seeded Poisson arrivals at 200 req/s
// for the whole run. At this rate nearly every row is alone, so the
// batcher's lone-row hold dominates. The 700 req/s figures come from the
// traced run: at that rate two connections sit at the edge of what they
// sustain, and its latencies swing too far between runs to gate on.
func runServePredict(e *env, g gateResult) (out outcome, err error) {
	rows := rowPool(e.seed, 512)
	f, setup, err := setupRepeated(func(n int) (*predictFixture, error) { return setupPredict(e, g.Quick, rows, n) },
		func(f *predictFixture) *served { return f.s })
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := f.s.close(); err == nil {
			err = cerr
		}
	}()
	reqs := predictRequests(e.seed, rows, 4096)

	heap := startHeapSampler()
	start := time.Now()
	n := int(lowRate * e.seconds.Seconds())
	r := phase(e, f.s, f.answers, g.Quick, rows, poissonSchedule(e.seed, lowRate, n), reqs, false, "serve.http")
	out.Tally.add(r.Tally)
	heapMB := peakHeapMB(heap.samples(), everySecond(start, time.Now()))

	if len(r.Latency) == 0 {
		return out, fmt.Errorf("serve-predict measured nothing")
	}
	out.Metrics, err = endToEnd(setup, r.Latency, latencyWindow, g.CVAccuracy, heapMB)
	fmt.Fprintf(e.out, "predict_p50_ms.r200 %.4f predict_p90_ms.r200 %.4f (whole run: %s, %s)\n",
		windowed(r.Latency, latencyWindow, 0.5), windowed(r.Latency, latencyWindow, 0.9),
		tailAt(r.Latency, 0.9), highestTail(r.Latency))
	fmt.Fprintf(e.out, "fail_ratio %.6f (%d of %d)\n", out.Tally.failRatio(), out.Tally.Failed, out.Tally.Attempted)
	return out, err
}

// ---- serve-fleet ----

// fleetHidden are the fleet's three network shapes: tenant wN has shape
// fleetHidden[N%3], as in cmd/servebench.
var fleetHidden = [][]int{{16}, {8}, {24}}

const (
	fleetTenants = 8
	canaryTenant = "w0"
)

// fleetFixture is the serve-fleet server and its traffic.
type fleetFixture struct {
	s       *served
	answers answers
	live    map[string]string // tenant → live instance ref
	pinned  []string          // every registered tenant@vN
}

// setupFleet trains two versions of each shape on the quick dataset,
// serves v1 of every tenant, deploys v2 live on all tenants but the
// canary, where v2 is staged as the shadow, and warms each tenant up.
func setupFleet(e *env, ds *workload.Dataset, rows [][]float64, n int) (*fleetFixture, error) {
	base := quickContext("", e.seed, e.nproc).Model
	dir := filepath.Join(e.tmp, fmt.Sprintf("fleet-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([][2]string, len(fleetHidden))
	for i, hidden := range fleetHidden {
		for v := 0; v < 2; v++ {
			cfg := base
			cfg.Hidden = hidden
			cfg.Seed = uint64(1 + i + 10*v)
			m, err := core.Fit(ds, cfg)
			if err != nil {
				return nil, err
			}
			paths[i][v] = filepath.Join(dir, fmt.Sprintf("shape%d-v%d.json", i, v+1))
			if err := m.SaveFile(paths[i][v]); err != nil {
				return nil, err
			}
		}
	}
	f := &fleetFixture{answers: answers{}, live: map[string]string{}}
	v1 := map[string]string{}
	for t := 0; t < fleetTenants; t++ {
		v1[tenantName(t)] = paths[t%len(fleetHidden)][0]
	}
	s, err := startServer(serve.Config{Models: v1}, e.nproc)
	if err != nil {
		return nil, err
	}
	f.s = s
	for t := 0; t < fleetTenants; t++ {
		name := tenantName(t)
		for v := 0; v < 2; v++ {
			ref := fmt.Sprintf("%s@v%d", name, v+1)
			if err := f.answers.add(ref, paths[t%len(fleetHidden)][v], rows); err != nil {
				s.close()
				return nil, err
			}
			f.pinned = append(f.pinned, ref)
		}
		inst, err := s.srv.Controller().Deploy(name, paths[t%len(fleetHidden)][1], name == canaryTenant)
		if err != nil {
			s.close()
			return nil, err
		}
		f.live[name] = name + "@v2"
		if name == canaryTenant {
			f.live[name] = name + "@v1"
			if inst.Version != 2 {
				s.close()
				return nil, fmt.Errorf("canary staged as v%d, want v2", inst.Version)
			}
		}
	}
	for t := 0; t < fleetTenants; t++ {
		name := tenantName(t)
		req := request{ref: name, want: f.live[name], body: predictBody(name, rows[0])}
		if ok, err := doHTTP(s, f.answers, req, 0); err != nil || !ok {
			s.close()
			return nil, fmt.Errorf("warm-up request to %s failed: ok=%v err=%v", name, ok, err)
		}
	}
	return f, nil
}

func tenantName(t int) string { return fmt.Sprintf("w%d", t) }

// fleetRequests draws the fleet mix: 70% live refs over the tenants, 20%
// version-pinned refs uniform over all registered versions, 10% /observe
// writes of measured samples to the canary tenant.
func (f *fleetFixture) fleetRequests(seed uint64, rows [][]float64, ds *workload.Dataset, n int) []request {
	src := rng.New(seed + 13)
	reqs := make([]request, n)
	for i := range reqs {
		u := src.Float64()
		row := src.Intn(len(rows))
		switch {
		case u < 0.7:
			name := tenantName(src.Intn(fleetTenants))
			reqs[i] = request{ref: name, want: f.live[name], row: row, body: predictBody(name, rows[row])}
		case u < 0.9:
			ref := f.pinned[src.Intn(len(f.pinned))]
			reqs[i] = request{pinned: true, ref: ref, want: ref, row: row, body: predictBody(ref, rows[row])}
		default:
			smp := src.Intn(ds.Len())
			b, _ := json.Marshal(serve.ObserveRequest{Model: canaryTenant, X: ds.Samples[smp].X, Actual: ds.Samples[smp].Y})
			reqs[i] = request{observe: true, ref: canaryTenant, sample: smp, body: b}
		}
	}
	return reqs
}

// runServeFleet: open loop at 400 req/s of the fleet mix for the whole
// run. It is the only workload that exercises the router, the registry's
// warm cache, cross-tenant batching, shadow mirroring and deploy writes.
func runServeFleet(e *env, g gateResult) (out outcome, err error) {
	rows := rowPool(e.seed, 512)
	f, setup, err := setupRepeated(func(n int) (*fleetFixture, error) { return setupFleet(e, g.Quick, rows, n) },
		func(f *fleetFixture) *served { return f.s })
	if err != nil {
		return out, err
	}
	defer func() {
		if cerr := f.s.close(); err == nil {
			err = cerr
		}
	}()
	reqs := f.fleetRequests(e.seed, rows, g.Quick, 4096)

	heap := startHeapSampler()
	start := time.Now()
	n := int(fleetRate * e.seconds.Seconds())
	r := phase(e, f.s, f.answers, g.Quick, rows, poissonSchedule(e.seed, fleetRate, n), reqs, false, "serve.http")
	out.Tally.add(r.Tally)
	heapMB := peakHeapMB(heap.samples(), everySecond(start, time.Now()))

	pred, _ := r.where(func(i int) bool { return !reqs[i%len(reqs)].observe })
	obsv, _ := r.where(func(i int) bool { return reqs[i%len(reqs)].observe })
	if len(pred) == 0 || len(obsv) == 0 {
		return out, fmt.Errorf("serve-fleet measured nothing: %d predictions, %d observations", len(pred), len(obsv))
	}
	out.Metrics, err = endToEnd(setup, pred, latencyWindow, g.CVAccuracy, heapMB)
	fmt.Fprintf(e.out, "fleet_p50_ms %.4f fleet_p90_ms %.4f (whole run: %s, %s) observe_p90_ms %.4f (%s, %s)\n",
		windowed(pred, latencyWindow, 0.5), windowed(pred, latencyWindow, 0.9), tailAt(pred, 0.9), highestTail(pred),
		tailAt(obsv, 0.9).Value, tailAt(obsv, 0.9), highestTail(obsv))
	fmt.Fprintf(e.out, "fail_ratio %.6f (%d of %d)\n", out.Tally.failRatio(), out.Tally.Failed, out.Tally.Attempted)
	return out, err
}
