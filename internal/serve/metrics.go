package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"nnwc/internal/obs/metrics"
	"nnwc/internal/serve/batch"
	"nnwc/internal/serve/registry"
)

// batchSizeBuckets are power-of-two edges for rows per forward call,
// up to well past the default MaxBatch of 64.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// divergenceBuckets are edges for the mean relative gap between shadow
// and live predictions: 0.1% up to a shadow twice off the live answer.
var divergenceBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2}

// metricsRegistry is the fleet's observability surface, built on the
// shared exporter in internal/obs/metrics: error and reload counters,
// the batch-size histogram, the batcher's group and lone-row hold counts,
// plus the per-tenant surface admission control
// is driven by — per-model request counters, latency histograms,
// in-flight gauges and shed counters — and the deployment-controller
// series (fleet events, rolling HMRE gauges, shadow divergence). Request
// counts and wall time per route come from the shared httpx middleware
// on metrics.Default(). The registry is per Server because its GaugeFuncs
// close over one server and tests run many servers in one process. All
// methods are safe for concurrent use. The exposition schema is pinned by
// TestMetricsSchema.
type metricsRegistry struct {
	reg       *metrics.Registry
	errors    *metrics.CounterVec
	batchSize *metrics.Histogram
	reloads   *metrics.Counter
	inflight  atomic.Int64

	tenantRequests *metrics.CounterVec
	tenantLatency  *metrics.HistogramVec
	tenantInflight *metrics.GaugeVec
	tenantShed     *metrics.CounterVec

	fleetEvents *metrics.CounterVec
	rollingHMRE *metrics.GaugeVec
	divergence  *metrics.HistogramVec
}

// newMetricsRegistry builds the registry; the registry's warm count and
// the batcher's own counts are read at scrape time.
func newMetricsRegistry(models *registry.Registry, batcher *batch.Batcher) *metricsRegistry {
	m := &metricsRegistry{reg: metrics.NewRegistry()}
	m.errors = m.reg.CounterVec("nnwc_request_errors_total",
		"Rejected or failed requests, by reason.", "reason")
	m.batchSize = m.reg.Histogram("nnwc_batch_size",
		"Rows per coalesced forward call.", batchSizeBuckets)
	m.reloads = m.reg.Counter("nnwc_model_reloads_total",
		"Live-model swaps from hot reloads since start.")
	m.reg.GaugeFunc("nnwc_inflight_requests",
		"Predict requests currently being handled.",
		func() float64 { return float64(m.inflight.Load()) })

	m.tenantRequests = m.reg.CounterVec("nnwc_tenant_requests_total",
		"Predict requests by model and status code.", "model", "code")
	m.tenantLatency = m.reg.HistogramVec("nnwc_tenant_latency_ms",
		"Successful prediction latency in milliseconds, by model.",
		metrics.DefMillisBuckets, "model")
	m.tenantInflight = m.reg.GaugeVec("nnwc_tenant_inflight_requests",
		"Predict requests in flight, by model.", "model")
	m.tenantShed = m.reg.CounterVec("nnwc_tenant_shed_total",
		"Requests shed by admission control, by model and reason.", "model", "reason")

	m.fleetEvents = m.reg.CounterVec("nnwc_fleet_events_total",
		"Deployment-controller actions, by model and action.", "model", "action")
	m.rollingHMRE = m.reg.GaugeVec("nnwc_fleet_rolling_hmre",
		"Rolling mean per-observation HMRE from reported actuals, by model and role.", "model", "role")
	m.divergence = m.reg.HistogramVec("nnwc_fleet_shadow_divergence",
		"Relative gap between mirrored shadow and live predictions.",
		divergenceBuckets, "model")

	m.reg.GaugeFunc("nnwc_registry_warm_models",
		"Model instances currently loaded in the registry's LRU cache.",
		func() float64 { return float64(models.WarmCount()) })
	m.reg.GaugeFunc("nnwc_batch_groups",
		"Active cross-tenant coalescing domains (distinct network shapes).",
		func() float64 { return float64(batcher.GroupCount()) })
	m.reg.CounterFunc("nnwc_batch_holds_total",
		"Lone rows held up to MaxWait for batch-mates (only while their group is coalescing).",
		batcher.Holds)
	m.reg.CounterFunc("nnwc_batch_holds_joined_total",
		"Held lone rows that found a batch-mate before MaxWait expired.",
		batcher.HoldsJoined)
	return m
}

// observeTenantRequest records the per-model request outcome and, for
// successes, its latency.
func (m *metricsRegistry) observeTenantRequest(tenant string, code int, elapsed time.Duration) {
	m.tenantRequests.Inc(tenant, strconv.Itoa(code))
	if code < 400 {
		m.tenantLatency.Observe(float64(elapsed)/float64(time.Millisecond), tenant)
	}
}

func (m *metricsRegistry) observeShed(tenant, reason string) {
	m.tenantShed.Inc(tenant, reason)
	m.errors.Inc(reason)
}

func (m *metricsRegistry) observeError(reason string) {
	m.errors.Inc(reason)
}

func (m *metricsRegistry) observeBatch(size int) {
	m.batchSize.Observe(float64(size))
}

func (m *metricsRegistry) observeReload() {
	m.reloads.Inc()
}

// batchStats returns (batches, rows) — used by tests to verify coalescing
// actually happened.
func (m *metricsRegistry) batchStats() (batches, rows uint64) {
	snap := m.batchSize.Snapshot()
	return snap.Count, uint64(snap.Sum)
}

// modelMeta is the metadata slice of /metrics, snapshotted from the
// default tenant's live model.
type modelMeta struct {
	path       string
	loadedUnix int64
	features   int
	targets    int
}

// write renders the Prometheus text exposition format: the registry's
// metrics in registration order, then the default model's metadata.
func (m *metricsRegistry) write(w io.Writer, meta *modelMeta) {
	m.reg.Write(w)
	if meta != nil {
		fmt.Fprintln(w, "# HELP nnwc_model_loaded_timestamp_seconds Unix time the serving model was loaded.")
		fmt.Fprintln(w, "# TYPE nnwc_model_loaded_timestamp_seconds gauge")
		fmt.Fprintf(w, "nnwc_model_loaded_timestamp_seconds %d\n", meta.loadedUnix)
		fmt.Fprintln(w, "# HELP nnwc_model_info Metadata of the serving model.")
		fmt.Fprintln(w, "# TYPE nnwc_model_info gauge")
		fmt.Fprintf(w, "nnwc_model_info{path=%q,features=\"%d\",targets=\"%d\"} 1\n",
			strings.ReplaceAll(meta.path, `"`, ""), meta.features, meta.targets)
	}
}
