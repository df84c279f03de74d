// Package serve is the production prediction service, structured as a
// multi-tenant model fleet:
//
//   - registry  versioned immutable artifacts keyed by SHA-256, with an
//     LRU cache of warm (loaded) instances
//   - deploy    per-tenant live/shadow deployments with canary mirroring,
//     rolling-HMRE policy, auto-promotion and rollback
//   - router    per-request "model@version" resolution to instances
//   - batch     cross-tenant request coalescing: tenants whose networks
//     share a topology fill one batch domain together
//
// This package is the HTTP plane on top: it decodes requests, validates
// rows against the resolved artifact's schema, applies admission control
// (per-tenant in-flight budgets, latency budgets, and the batcher's
// queue-depth shedding), and renders responses and metrics.
//
// Endpoints:
//
//	POST /predict         {"model":"web@v3","x":[...]} or {"instances":[[...],...]}
//	POST /observe         {"model":"web","x":[...],"actual":[...]} → policy decision
//	GET  /fleet           per-tenant deployment status (versions, SHAs, HMRE)
//	POST /fleet/deploy    {"model":"web","path":"m.json","canary":true}
//	POST /fleet/promote   {"model":"web"}
//	POST /fleet/rollback  {"model":"web"}
//	GET  /healthz         liveness (process up)
//	GET  /readyz          readiness (≥1 live model, not draining)
//	GET  /metrics         Prometheus text: fleet, per-tenant and batch metrics
//	POST /-/reload        re-register every tenant's configured path; changed
//	                      bytes become a new version deployed straight to live
//
// Models can also be hot-reloaded with SIGHUP (wired in cmd/nnwc).
// Shutdown drains: readiness flips immediately, in-flight requests finish,
// then the inference workers stop.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"nnwc/internal/httpx"
	"nnwc/internal/obs"
	"nnwc/internal/obs/metrics"
	"nnwc/internal/serve/batch"
	"nnwc/internal/serve/deploy"
	"nnwc/internal/serve/registry"
	"nnwc/internal/serve/router"
)

// Config parameterizes a Server. Zero values get production defaults.
type Config struct {
	// Addr is the listen address (default ":8080"; use "127.0.0.1:0" in
	// tests and read the bound address back with Addr).
	Addr string
	// ModelPath is a single persisted model artifact, served as tenant
	// "default" — the pre-fleet configuration, kept for compatibility.
	ModelPath string
	// Models maps tenant name → artifact path; every entry is registered
	// and deployed live at startup. May be combined with ModelPath.
	Models map[string]string
	// DefaultTenant serves requests that name no model. Defaults to the
	// only tenant when exactly one is configured, else "" (unnamed
	// requests are rejected).
	DefaultTenant string
	// WarmModels caps the registry's loaded-instance LRU (default 8).
	WarmModels int
	// Deploy tunes the canary promotion/rollback policy.
	Deploy deploy.Config
	// MaxBatch bounds the rows gathered into one forward call (default
	// 64). 1 disables coalescing — every request is its own forward call.
	MaxBatch int
	// MaxWait bounds the extra latency a request can pay waiting for
	// batch-mates (default 0; nnwc serve passes 2ms). A lone row is held
	// only while its batch domain is coalescing — its previous batch
	// found company — so an idle server adds no wait. 0 means gather only
	// what is already queued.
	MaxWait time.Duration
	// RequestTimeout bounds one prediction end to end (default 5s).
	RequestTimeout time.Duration
	// ReadTimeout, WriteTimeout and IdleTimeout bound the listener's
	// per-connection I/O (reading one full request, writing one full
	// response, keep-alive idle time) so a slow or stalled client cannot
	// pin a connection forever. Zero takes the httpx defaults (30s / 30s
	// / 120s; request headers are always bounded at 5s); a negative value
	// disables that timeout explicitly.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// Workers is the number of gather-and-infer loops per batch domain
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth is each batch domain's pending-row buffer (default 1024).
	// A full queue sheds new rows with 429 — the queue-depth half of
	// admission control.
	QueueDepth int
	// MaxInflight caps concurrently handled predict requests per tenant;
	// beyond it requests shed with 429 (default 0: uncapped).
	MaxInflight int
	// LatencyBudget, when set, bounds one prediction tighter than
	// RequestTimeout; a request that cannot finish inside the budget is
	// shed with 429 so queue pressure relieves itself (default 0: off).
	LatencyBudget time.Duration
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// Trace, when set, receives registry and deployment events
	// (model_deploy, model_promote, ...) for the run's trace file.
	Trace *obs.Trace
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// DefaultSingleTenant is the tenant name a bare ModelPath is served under.
const DefaultSingleTenant = "default"

// Server is the prediction service. Create with New, start listening with
// Start, stop with Shutdown.
type Server struct {
	cfg     Config
	reg     *registry.Registry
	ctl     *deploy.Controller
	router  *router.Router
	batcher *batch.Batcher
	metrics *metricsRegistry

	// tenantPaths remembers each tenant's configured artifact path — the
	// file /-/reload and SIGHUP re-register.
	tenantPaths map[string]string

	http     *http.Server
	ln       net.Listener
	draining atomic.Bool
	serveErr chan error
}

// New builds a Server: the registry, deployment controller, router and
// cross-tenant batcher are wired together, every configured model is
// registered and deployed live, and the inference workers start. The HTTP
// listener is not opened until Start; Handler can be mounted elsewhere
// (tests, embedding).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         registry.New(cfg.WarmModels),
		tenantPaths: make(map[string]string),
		serveErr:    make(chan error, 1),
	}
	s.batcher = batch.New(batch.Config{
		MaxBatch:   cfg.MaxBatch,
		MaxWait:    cfg.MaxWait,
		QueueDepth: cfg.QueueDepth,
		Workers:    cfg.Workers,
	}, s.runBatch)
	s.metrics = newMetricsRegistry(s.reg, s.batcher)
	s.ctl = deploy.New(s.reg, cfg.Deploy, s.onFleetEvent)

	if cfg.ModelPath != "" {
		s.tenantPaths[DefaultSingleTenant] = cfg.ModelPath
	}
	for tenant, path := range cfg.Models {
		if prev, ok := s.tenantPaths[tenant]; ok && prev != path {
			return nil, fmt.Errorf("serve: tenant %q configured twice (%s and %s)", tenant, prev, path)
		}
		s.tenantPaths[tenant] = path
	}
	for _, tenant := range sortedTenants(s.tenantPaths) {
		if _, err := s.ctl.Deploy(tenant, s.tenantPaths[tenant], false); err != nil {
			s.batcher.Shutdown()
			return nil, fmt.Errorf("serve: deploying %q: %w", tenant, err)
		}
	}
	def := cfg.DefaultTenant
	if def == "" && len(s.tenantPaths) == 1 {
		for tenant := range s.tenantPaths {
			def = tenant
		}
	}
	if def != "" {
		if _, ok := s.tenantPaths[def]; !ok {
			s.batcher.Shutdown()
			return nil, fmt.Errorf("serve: default tenant %q has no configured model", def)
		}
	}
	s.router = router.New(s.reg, s.ctl, def)
	return s, nil
}

func sortedTenants(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// onFleetEvent is the deployment controller's sink: count the action,
// surface the rolled version in the run trace.
func (s *Server) onFleetEvent(e deploy.Event) {
	s.metrics.fleetEvents.Inc(e.Tenant, e.Action)
	if s.cfg.Trace != nil {
		auto := 0
		if e.Auto {
			auto = 1
		}
		s.cfg.Trace.Emit("model_"+e.Action,
			obs.String("tenant", e.Tenant),
			obs.Int("version", e.Version),
			obs.String("sha256", e.SHA256),
			obs.Int("auto", auto))
	}
}

// Registry exposes the model store (for manifests and tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Controller exposes the deployment controller (for tests and embedding).
func (s *Server) Controller() *deploy.Controller { return s.ctl }

// Reload re-registers every tenant's configured artifact path. Files whose
// bytes changed become a new registry version and swap straight to live
// (requests in flight keep their resolved snapshot); unchanged files are
// no-ops. Used by /-/reload and SIGHUP.
func (s *Server) Reload() error {
	var errs []error
	for _, tenant := range sortedTenants(s.tenantPaths) {
		var before *registry.Instance
		if d := s.ctl.Deployment(tenant); d != nil {
			before = d.Live()
		}
		inst, err := s.ctl.Deploy(tenant, s.tenantPaths[tenant], false)
		if err != nil {
			s.metrics.observeError("reload_failed")
			errs = append(errs, fmt.Errorf("%s: %w", tenant, err))
			continue
		}
		if before == nil || inst.Version != before.Version {
			s.metrics.observeReload()
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("serve: reload: %w", errors.Join(errs...))
	}
	return nil
}

// ModelInfo describes the model that served a response.
type ModelInfo struct {
	Ref          string   `json:"ref"` // tenant@vN
	Version      int      `json:"version"`
	SHA256       string   `json:"sha256"`
	Shape        string   `json:"shape"`
	Path         string   `json:"path"`
	LoadedAt     string   `json:"loaded_at"`
	FeatureNames []string `json:"feature_names"`
	TargetNames  []string `json:"target_names"`
}

func modelInfo(inst *registry.Instance) ModelInfo {
	return ModelInfo{
		Ref:          inst.Ref(),
		Version:      inst.Version,
		SHA256:       inst.SHA256,
		Shape:        inst.Shape,
		Path:         inst.Path,
		LoadedAt:     inst.LoadedAt.UTC().Format(time.RFC3339Nano),
		FeatureNames: inst.FeatureNames,
		TargetNames:  inst.TargetNames,
	}
}

// PredictRequest is the /predict body: one vector in X, or several in
// Instances (exactly one of the two). Model selects the serving model —
// "" (the default tenant), "web" (live), or "web@v3" (pinned).
type PredictRequest struct {
	Model     string      `json:"model,omitempty"`
	X         []float64   `json:"x,omitempty"`
	Instances [][]float64 `json:"instances,omitempty"`
}

// PredictResponse is the /predict reply. Predictions[i][j] is indicator j
// (TargetNames[j]) for input row i, in native units.
type PredictResponse struct {
	Predictions [][]float64 `json:"predictions"`
	TargetNames []string    `json:"target_names"`
	Warnings    []string    `json:"warnings,omitempty"`
	Model       ModelInfo   `json:"model"`
}

// ObserveRequest is the /observe body: one configuration vector and the
// performance indicators actually measured for it. Observations feed the
// named tenant's rolling-HMRE windows (live and shadow) and drive the
// canary policy.
type ObserveRequest struct {
	Model  string    `json:"model,omitempty"`
	X      []float64 `json:"x"`
	Actual []float64 `json:"actual"`
}

// ObserveResponse reports the rolling state after one observation. HMRE
// fields are omitted until their window has data.
type ObserveResponse struct {
	Tenant     string   `json:"tenant"`
	LiveHMRE   *float64 `json:"live_hmre,omitempty"`
	ShadowHMRE *float64 `json:"shadow_hmre,omitempty"`
	Promoted   bool     `json:"promoted,omitempty"`
	RolledBack bool     `json:"rolled_back,omitempty"`
}

// TenantStatus is one tenant's /fleet row — deploy.Status with the
// NaN-able rolling means made JSON-safe.
type TenantStatus struct {
	Tenant       string   `json:"tenant"`
	LiveVersion  int      `json:"live_version"`
	LiveSHA256   string   `json:"live_sha256"`
	LiveShape    string   `json:"live_shape"`
	ShadowVer    int      `json:"shadow_version,omitempty"`
	ShadowSHA256 string   `json:"shadow_sha256,omitempty"`
	PrevVersion  int      `json:"previous_version,omitempty"`
	LiveHMRE     *float64 `json:"live_hmre,omitempty"`
	ShadowHMRE   *float64 `json:"shadow_hmre,omitempty"`
	Divergence   *float64 `json:"shadow_divergence,omitempty"`
	LiveObs      int      `json:"live_observations"`
	ShadowObs    int      `json:"shadow_observations"`
	Promotions   uint64   `json:"promotions"`
	Rollbacks    uint64   `json:"rollbacks"`
}

// FleetStatus is the /fleet reply.
type FleetStatus struct {
	Tenants   []TenantStatus `json:"tenants"`
	WarmCount int            `json:"warm_models"`
	Groups    int            `json:"batch_groups"`
}

// nanSafe converts a possibly-NaN float into a JSON-encodable pointer
// (json.Marshal rejects NaN outright).
func nanSafe(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func tenantStatus(st deploy.Status) TenantStatus {
	return TenantStatus{
		Tenant:       st.Tenant,
		LiveVersion:  st.LiveVersion,
		LiveSHA256:   st.LiveSHA256,
		LiveShape:    st.LiveShape,
		ShadowVer:    st.ShadowVer,
		ShadowSHA256: st.ShadowSHA256,
		PrevVersion:  st.PrevVersion,
		LiveHMRE:     nanSafe(st.LiveHMRE),
		ShadowHMRE:   nanSafe(st.ShadowHMRE),
		Divergence:   nanSafe(st.Divergence),
		LiveObs:      st.LiveObs,
		ShadowObs:    st.ShadowObs,
		Promotions:   st.Promotions,
		Rollbacks:    st.Rollbacks,
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP API behind the shared httpx middleware, which
// records per-route request counts and wall time (nnwc_http_*) and, with
// a trace configured, one span per request. Routes are a fixed set, so
// the default METHOD+path label stays bounded.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", s.handlePredict)
	mux.HandleFunc("POST /observe", s.handleObserve)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("POST /fleet/deploy", s.handleFleetDeploy)
	mux.HandleFunc("POST /fleet/promote", s.handleFleetAction("promote", s.ctl.Promote))
	mux.HandleFunc("POST /fleet/rollback", s.handleFleetAction("rollback", s.ctl.Rollback))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /-/reload", s.handleReload)
	return httpx.Instrument(httpx.InstrumentOptions{Service: "serve", Trace: s.cfg.Trace}, mux)
}

// Start opens the listener on cfg.Addr and serves the API until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.http = httpx.NewServer(s.Handler(), httpx.Timeouts{
		Read:  s.cfg.ReadTimeout,
		Write: s.cfg.WriteTimeout,
		Idle:  s.cfg.IdleTimeout,
	})
	go func() {
		err := s.http.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil // clean Shutdown-initiated close
		}
		s.serveErr <- err
	}()
	return nil
}

// Addr reports the bound listen address (useful with Addr "127.0.0.1:0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Wait blocks until the HTTP listener stops: nil after a clean
// Shutdown-initiated close, the serve error if the listener fails.
func (s *Server) Wait() error { return <-s.serveErr }

// Predict submits one row to the default tenant's live model — the
// pre-fleet in-process API, equivalent to PredictRef(ctx, "", x).
func (s *Server) Predict(ctx context.Context, x []float64) ([]float64, error) {
	return s.PredictRef(ctx, "", x)
}

// PredictRef resolves ref ("", "web", "web@v3") and submits one row
// through the cross-tenant batcher. This is the same inference path the
// /predict handler uses, minus HTTP — for embedding the server in-process
// and for benchmarks that isolate the micro-batching layer.
func (s *Server) PredictRef(ctx context.Context, ref string, x []float64) ([]float64, error) {
	inst, _, err := s.router.Resolve(ref)
	if err != nil {
		return nil, err
	}
	if len(x) != inst.InputDim {
		return nil, fmt.Errorf("serve: model %s expects %d features, got %d", inst.Ref(), inst.InputDim, len(x))
	}
	ys, err := s.batcher.Submit(ctx, inst, [][]float64{x})
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// Shutdown drains and stops the server: readiness flips to 503 first (load
// balancers stop routing), the HTTP server stops accepting and waits for
// in-flight handlers within ctx, then the inference workers stop. Requests
// in flight at call time complete normally.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.http != nil {
		err = s.http.Shutdown(ctx)
	} else {
		// Never started: unblock any Wait caller anyway.
		select {
		case s.serveErr <- nil:
		default:
		}
	}
	s.batcher.Shutdown()
	return err
}

// runBatch is the batcher's inference callback. The gathered super-batch
// may span several instances of one network shape; rows regroup by
// instance (weights differ) and each sub-batch takes one batched forward
// call. After replies fan out, live rows whose tenant has a staged shadow
// are mirrored: the shadow predicts the same rows and the divergence
// between the answers feeds the canary's comparison window.
func (s *Server) runBatch(jobs []batch.Job) {
	s.metrics.observeBatch(len(jobs))
	// Group by instance, preserving first-seen order for determinism.
	type subBatch struct {
		inst *registry.Instance
		xs   [][]float64
		js   []batch.Job
	}
	var subs []*subBatch
	byInst := make(map[*registry.Instance]*subBatch, 1)
	for _, j := range jobs {
		sb, ok := byInst[j.Inst]
		if !ok {
			sb = &subBatch{inst: j.Inst}
			byInst[j.Inst] = sb
			subs = append(subs, sb)
		}
		sb.xs = append(sb.xs, j.X)
		sb.js = append(sb.js, j)
	}
	for _, sb := range subs {
		outs, err := predictSafely(sb.inst, sb.xs)
		if err != nil {
			s.metrics.observeError("inference_panic")
			for _, j := range sb.js {
				j.Reply <- batch.Result{Err: err}
			}
			continue
		}
		for i, j := range sb.js {
			j.Reply <- batch.Result{Y: outs[i]}
		}
		s.mirror(sb.inst, sb.xs, outs)
	}
}

// mirror runs a staged shadow over rows its live sibling just served and
// records prediction divergence. Replies have already been sent — shadow
// inference never adds latency to the live path.
func (s *Server) mirror(inst *registry.Instance, xs, liveOuts [][]float64) {
	d := s.ctl.Deployment(inst.Tenant)
	if d == nil || d.Live() != inst {
		return // pinned-version traffic is not mirrored
	}
	sh := d.Shadow()
	if sh == nil {
		return
	}
	shOuts, err := predictSafely(sh, xs)
	if err != nil {
		s.metrics.observeError("shadow_panic")
		return
	}
	for i := range xs {
		d.Mirror(liveOuts[i], shOuts[i])
	}
	st := d.Status()
	if !math.IsNaN(st.Divergence) {
		s.metrics.divergence.Observe(st.Divergence, inst.Tenant)
	}
}

// predictSafely converts an inference panic into an error so one poisoned
// batch cannot take the server down.
func predictSafely(inst *registry.Instance, xs [][]float64) (outs [][]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: inference panicked: %v", r)
		}
	}()
	return inst.Pred.PredictAll(xs), nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.anyLive():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no model loaded"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) anyLive() bool {
	for _, tenant := range s.reg.Tenants() {
		if d := s.ctl.Deployment(tenant); d != nil && d.Live() != nil {
			return true
		}
	}
	return false
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var meta *modelMeta
	if d := s.ctl.Deployment(s.router.DefaultTenant()); d != nil {
		if live := d.Live(); live != nil {
			meta = &modelMeta{
				path:       live.Path,
				loadedUnix: live.LoadedAt.Unix(),
				features:   live.InputDim,
				targets:    live.OutputDim,
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, meta)
	// The process-wide registry carries the series the shared httpx
	// middleware records (nnwc_http_*), so one scrape sees both the
	// fleet surface and the request layer.
	metrics.Default().Write(w)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if err := s.Reload(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "reloaded",
		"tenants": sortedTenants(s.tenantPaths),
	})
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	st := FleetStatus{
		Tenants:   []TenantStatus{},
		WarmCount: s.reg.WarmCount(),
		Groups:    s.batcher.GroupCount(),
	}
	for _, tenant := range s.reg.Tenants() {
		if d := s.ctl.Deployment(tenant); d != nil {
			st.Tenants = append(st.Tenants, tenantStatus(d.Status()))
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// fleetRequest is the body of the /fleet mutation endpoints.
type fleetRequest struct {
	Model  string `json:"model"`
	Path   string `json:"path,omitempty"`
	Canary bool   `json:"canary,omitempty"`
}

func (s *Server) decodeFleetRequest(w http.ResponseWriter, r *http.Request) (fleetRequest, bool) {
	var req fleetRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.observeError("bad_json")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return req, false
	}
	if req.Model == "" {
		s.metrics.observeError("bad_request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `"model" is required`})
		return req, false
	}
	return req, true
}

func (s *Server) handleFleetDeploy(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeFleetRequest(w, r)
	if !ok {
		return
	}
	if req.Path == "" {
		s.metrics.observeError("bad_request")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: `"path" is required`})
		return
	}
	inst, err := s.ctl.Deploy(req.Model, req.Path, req.Canary)
	if err != nil {
		s.metrics.observeError("deploy_failed")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	// The deployed path becomes the tenant's reload target.
	s.tenantPaths[req.Model] = req.Path
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "deployed",
		"canary": req.Canary,
		"model":  modelInfo(inst),
	})
}

func (s *Server) handleFleetAction(endpoint string, action func(string) (*registry.Instance, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.decodeFleetRequest(w, r)
		if !ok {
			return
		}
		inst, err := action(req.Model)
		if err != nil {
			s.metrics.observeError(endpoint + "_failed")
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		status := endpoint + "d"
		if endpoint == "rollback" {
			status = "rolled back"
		}
		resp := map[string]any{"status": status}
		if inst != nil {
			resp["model"] = modelInfo(inst)
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.observeError("bad_json")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	tenant := req.Model
	if tenant == "" {
		tenant = s.router.DefaultTenant()
	}
	dec2, err := s.ctl.Observe(tenant, req.X, req.Actual)
	if err != nil {
		s.metrics.observeError("bad_observation")
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if !math.IsNaN(dec2.LiveHMRE) {
		s.metrics.rollingHMRE.Set(dec2.LiveHMRE, tenant, "live")
	}
	if !math.IsNaN(dec2.ShadowHMRE) {
		s.metrics.rollingHMRE.Set(dec2.ShadowHMRE, tenant, "shadow")
	}
	writeJSON(w, http.StatusOK, ObserveResponse{
		Tenant:     tenant,
		LiveHMRE:   nanSafe(dec2.LiveHMRE),
		ShadowHMRE: nanSafe(dec2.ShadowHMRE),
		Promoted:   dec2.Promoted,
		RolledBack: dec2.RolledBack,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)

	tenant := "" // resolved below; failures before resolution count globally only
	respond := func(status int, v any) {
		writeJSON(w, status, v)
		if tenant != "" {
			s.metrics.observeTenantRequest(tenant, status, time.Since(start))
		}
	}

	if s.draining.Load() {
		s.metrics.observeError("draining")
		respond(http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	}

	var req PredictRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.observeError("bad_json")
		respond(http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}

	inst, _, err := s.router.Resolve(req.Model)
	if err != nil {
		status := http.StatusNotFound
		reason := "unknown_model"
		switch {
		case errors.Is(err, router.ErrBadRef):
			status, reason = http.StatusBadRequest, "bad_request"
		case errors.Is(err, router.ErrNoLive):
			status, reason = http.StatusServiceUnavailable, "no_model"
		case errors.Is(err, router.ErrUnknownModel) && len(s.reg.Tenants()) == 0:
			// An empty fleet is an operational state, not a client mistake.
			status, reason = http.StatusServiceUnavailable, "no_model"
		}
		s.metrics.observeError(reason)
		respond(status, errorResponse{Error: err.Error()})
		return
	}
	tenant = inst.Tenant

	// Admission control, in-flight half: each tenant gets a budget of
	// concurrently handled requests; beyond it we shed rather than queue.
	// The budget check and the increment are one locked step, so
	// concurrent requests cannot all slip under the same last slot.
	limit := math.Inf(1)
	if s.cfg.MaxInflight > 0 {
		limit = float64(s.cfg.MaxInflight)
	}
	if !s.metrics.tenantInflight.AddBelow(1, limit, tenant) {
		s.metrics.observeShed(tenant, "inflight_budget")
		respond(http.StatusTooManyRequests, errorResponse{Error: fmt.Sprintf("tenant %q is over its in-flight budget (%d)", tenant, s.cfg.MaxInflight)})
		return
	}
	defer s.metrics.tenantInflight.Add(-1, tenant)

	rows, err := requestRows(req)
	if err != nil {
		s.metrics.observeError("bad_request")
		respond(http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	warnings, err := validateRows(inst, rows)
	if err != nil {
		s.metrics.observeError("bad_input")
		respond(http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	// Admission control, latency half: the request must finish inside its
	// latency budget (when configured) or be shed.
	timeout := s.cfg.RequestTimeout
	budgeted := s.cfg.LatencyBudget > 0 && s.cfg.LatencyBudget < timeout
	if budgeted {
		timeout = s.cfg.LatencyBudget
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	preds, err := s.batcher.Submit(ctx, inst, rows)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded) && budgeted:
		s.metrics.observeShed(tenant, "latency_budget")
		respond(http.StatusTooManyRequests, errorResponse{Error: fmt.Sprintf("prediction exceeded the %s latency budget", s.cfg.LatencyBudget)})
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.observeError("timeout")
		respond(http.StatusGatewayTimeout, errorResponse{Error: "prediction timed out"})
		return
	case errors.Is(err, batch.ErrOverloaded):
		s.metrics.observeShed(tenant, "queue_full")
		respond(http.StatusTooManyRequests, errorResponse{Error: "prediction queue is full"})
		return
	case errors.Is(err, batch.ErrDraining):
		s.metrics.observeError("draining")
		respond(http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return
	default:
		s.metrics.observeError("inference")
		respond(http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}

	respond(http.StatusOK, PredictResponse{
		Predictions: preds,
		TargetNames: inst.TargetNames,
		Warnings:    warnings,
		Model:       modelInfo(inst),
	})
}

// requestRows normalizes a PredictRequest into its input rows.
func requestRows(req PredictRequest) ([][]float64, error) {
	switch {
	case len(req.X) > 0 && len(req.Instances) > 0:
		return nil, errors.New(`use "x" or "instances", not both`)
	case len(req.X) > 0:
		return [][]float64{req.X}, nil
	case len(req.Instances) > 0:
		return req.Instances, nil
	}
	return nil, errors.New(`request must carry "x" (one vector) or "instances" (several)`)
}

// maxWarnings caps the envelope warnings one response carries.
const maxWarnings = 16

// validateRows checks dimensionality and finiteness (hard errors) and
// collects training-envelope warnings (soft: the model will extrapolate,
// which the paper's methodology does not vouch for).
func validateRows(inst *registry.Instance, rows [][]float64) ([]string, error) {
	var warnings []string
	for i, x := range rows {
		if len(x) != inst.InputDim {
			return nil, fmt.Errorf("row %d has %d features, model %s expects %d (%v)", i, len(x), inst.Ref(), inst.InputDim, inst.FeatureNames)
		}
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("row %d feature %q: non-finite value", i, inst.FeatureNames[j])
			}
			if inst.FeatureMin != nil && (v < inst.FeatureMin[j] || v > inst.FeatureMax[j]) && len(warnings) < maxWarnings {
				warnings = append(warnings, fmt.Sprintf("row %d: %s=%g outside training envelope [%g, %g]",
					i, inst.FeatureNames[j], v, inst.FeatureMin[j], inst.FeatureMax[j]))
			}
		}
	}
	return warnings, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
