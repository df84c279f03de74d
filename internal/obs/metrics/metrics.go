// Package metrics is the shared Prometheus-text metrics registry: typed
// counters, labeled counter and gauge vectors, gauges and mergeable
// fixed-bucket histograms (histogram.go) with a deterministic exposition
// order, so both the prediction server's /metrics and the debug
// endpoint's training-side counters render through one exporter and the
// schema stays pin-testable.
//
// A Registry renders metrics in registration order; within a labeled
// metric, cells render sorted by label values. Histograms are the only
// distribution type: their bucket counts cover the process lifetime and
// add across processes, which is what dist federation relies on.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metrics and renders them in registration order.
type Registry struct {
	mu   sync.Mutex
	list []renderer
}

type renderer interface {
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry behind Default: library
// counters (training epochs, scheduler tasks) register here and the debug
// endpoint serves it at /metrics.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) add(m renderer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.list = append(r.list, m)
}

// Write renders the Prometheus text exposition of every metric, in
// registration order.
func (r *Registry) Write(w io.Writer) {
	r.mu.Lock()
	list := append([]renderer(nil), r.list...)
	r.mu.Unlock()
	for _, m := range list {
		m.render(w)
	}
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// Counter is a monotonically increasing uint64. Safe for concurrent use;
// Inc/Add never allocate, so counters may sit on hot loops.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.add(c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// CounterFunc renders a monotonic count owned elsewhere (an atomic in
// another package), read from fn at render time.
type CounterFunc struct {
	name, help string
	fn         func() uint64
}

// CounterFunc registers a counter whose value is read at render time; fn
// must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) *CounterFunc {
	c := &CounterFunc{name: name, help: help, fn: fn}
	r.add(c)
	return c
}

func (c *CounterFunc) render(w io.Writer) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.fn())
}

// labelSep joins label values into one map key; it cannot appear in a
// well-formed label value.
const labelSep = "\x1f"

// cellKey joins one labeled cell's values into its map key. Every vec
// type shares it; a label-arity mismatch is a programming error and
// panics.
func cellKey(name string, labels, values []string) string {
	if len(values) != len(labels) {
		panic(fmt.Sprintf("metrics: %s expects %d label values, got %d", name, len(labels), len(values)))
	}
	return strings.Join(values, labelSep)
}

// CounterVec is a counter with a fixed set of label names; each distinct
// label-value tuple is one cell. Cells render sorted by label values.
type CounterVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	cells      map[string]uint64
}

// CounterVec registers and returns a labeled counter.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{name: name, help: help, labels: labels, cells: make(map[string]uint64)}
	r.add(v)
	return v
}

// Inc adds one to the cell identified by the label values.
func (v *CounterVec) Inc(values ...string) { v.Add(1, values...) }

// Add adds n to the cell identified by the label values.
func (v *CounterVec) Add(n uint64, values ...string) {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	v.cells[k] += n
	v.mu.Unlock()
}

// Value returns one cell's count.
func (v *CounterVec) Value(values ...string) uint64 {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cells[k]
}

func (v *CounterVec) render(w io.Writer) {
	header(w, v.name, v.help, "counter")
	v.mu.Lock()
	keys := make([]string, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	vals := make(map[string]uint64, len(v.cells))
	for k, n := range v.cells {
		vals[k] = n
	}
	v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %d\n", v.name, labelPairs(v.labels, k), vals[k])
	}
}

// GaugeVec is a labeled gauge: each distinct label-value tuple is one cell
// holding the last Set value. Cells render sorted by label values.
type GaugeVec struct {
	name, help string
	labels     []string
	mu         sync.Mutex
	cells      map[string]float64
}

// GaugeVec registers and returns a labeled gauge.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, labels: labels, cells: make(map[string]float64)}
	r.add(v)
	return v
}

// Set stores the cell's current value.
func (v *GaugeVec) Set(val float64, values ...string) {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	v.cells[k] = val
	v.mu.Unlock()
}

// Add shifts the cell's current value by delta (creating it at delta).
func (v *GaugeVec) Add(delta float64, values ...string) {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	v.cells[k] += delta
	v.mu.Unlock()
}

// AddBelow shifts the cell by delta only when its current value is below
// limit, and reports whether it did. Check and shift are one locked step,
// so concurrent callers racing for the last unit below limit cannot all
// pass — the admission-control use of an in-flight gauge.
func (v *GaugeVec) AddBelow(delta, limit float64, values ...string) bool {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cells[k] >= limit {
		return false
	}
	v.cells[k] += delta
	return true
}

// Value returns one cell's current value.
func (v *GaugeVec) Value(values ...string) float64 {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cells[k]
}

func (v *GaugeVec) render(w io.Writer) {
	header(w, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.cells))
	for k := range v.cells {
		keys = append(keys, k)
	}
	vals := make(map[string]float64, len(v.cells))
	for k, x := range v.cells {
		vals[k] = x
	}
	v.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s} %g\n", v.name, labelPairs(v.labels, k), vals[k])
	}
}

// labelPairs renders a joined cell key as name="value" pairs.
func labelPairs(labels []string, key string) string {
	parts := strings.Split(key, labelSep)
	pairs := make([]string, len(parts))
	for i, p := range parts {
		pairs[i] = fmt.Sprintf("%s=%q", labels[i], p)
	}
	return strings.Join(pairs, ",")
}

// GaugeFunc renders a single instantaneous value read from fn.
type GaugeFunc struct {
	name, help string
	fn         func() float64
}

// GaugeFunc registers a gauge whose value is read at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	r.add(g)
	return g
}

func (g *GaugeFunc) render(w io.Writer) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %g\n", g.name, g.fn())
}
