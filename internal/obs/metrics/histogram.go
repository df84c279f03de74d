package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"nnwc/internal/stats"
)

// Histogram is a fixed-bucket distribution. Its per-bucket counts add:
// merging the snapshots of N workers
// yields exactly the histogram one process observing all their events
// would have built. That additivity is what the dist plane's metrics
// federation rides on — workers push HistogramSnapshots with each lease
// renewal and the coordinator sums them into cluster-wide series.
//
// Bucket bounds are inclusive upper edges in ascending order; one
// implicit +Inf bucket catches everything above the last bound.
type Histogram struct {
	name, help string
	bounds     []float64
	mu         sync.Mutex
	counts     []uint64 // len(bounds)+1; the last cell is the +Inf bucket
	sum        float64
	count      uint64
}

// DefMillisBuckets is the default latency bucket layout (milliseconds):
// roughly exponential from an uncoalesced in-process prediction (tens of
// microseconds) up to half-minute training tasks. Milliseconds are the
// one duration unit every histogram in the repo uses.
var DefMillisBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000}

// NewHistogram returns an unregistered histogram — a local accumulator
// whose snapshots feed federation (e.g. each dist worker's task timer)
// without appearing in any registry's exposition. Register with
// Registry.Histogram instead when the series should render locally.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{name: name, help: help, bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Histogram registers and returns a fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(name, help, bounds)
	r.add(h)
	return h
}

// Observe records one value. NaN observations are dropped (they have no
// bucket and would poison the sum).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: its bucket
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Snapshot copies the current state into a mergeable, JSON-encodable
// value.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

func (h *Histogram) render(w io.Writer) {
	snap := h.Snapshot()
	header(w, h.name, h.help, "histogram")
	renderHistCells(w, h.name, "", snap)
}

// HistogramSnapshot is the wire/merge form of a histogram: bucket bounds,
// per-bucket counts (last cell = +Inf), lifetime sum and count. The zero
// value is an empty snapshot that adopts the bounds of whatever is merged
// into it.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// sameBounds reports whether two bound layouts are identical (exact
// comparison: layouts are configuration constants, not computed values).
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !stats.ExactEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// valid reports a structurally consistent snapshot.
func (s HistogramSnapshot) valid() bool {
	return len(s.Counts) == len(s.Bounds)+1
}

// Merge adds another snapshot's counts into s. The receiver adopts o's
// bucket layout when empty; otherwise the layouts must match exactly —
// per-bucket counts only add between identical buckets.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) error {
	if !o.valid() {
		if len(o.Bounds) == 0 && len(o.Counts) == 0 && o.Count == 0 {
			return nil // merging an empty zero snapshot is a no-op
		}
		return fmt.Errorf("metrics: malformed histogram snapshot (%d bounds, %d counts)", len(o.Bounds), len(o.Counts))
	}
	if len(s.Bounds) == 0 && len(s.Counts) == 0 {
		s.Bounds = append([]float64(nil), o.Bounds...)
		s.Counts = make([]uint64, len(o.Counts))
	}
	if !sameBounds(s.Bounds, o.Bounds) {
		return fmt.Errorf("metrics: cannot merge histograms with different bucket bounds")
	}
	for i, n := range o.Counts {
		s.Counts[i] += n
	}
	s.Sum += o.Sum
	s.Count += o.Count
	return nil
}

// renderHistCells writes one histogram's Prometheus text lines:
// cumulative _bucket{le=...} counts (ending at +Inf == _count), then
// _sum and _count. labelPrefix, when non-empty, is a rendered
// `name="value"` pair list prepended to the le label.
func renderHistCells(w io.Writer, name, labelPrefix string, s HistogramSnapshot) {
	sep := ""
	if labelPrefix != "" {
		sep = ","
	}
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labelPrefix, sep, le, cum)
	}
	if labelPrefix != "" {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labelPrefix, s.Sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labelPrefix, s.Count)
	} else {
		fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
		fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
	}
}

// HistogramVec is a labeled histogram: every cell shares one bucket
// layout (a federation requirement — Merged sums the cells). Cells are
// fed either locally via Observe or remotely via SetSnapshot, which
// replaces a cell wholesale with a pushed cumulative snapshot (idempotent
// under re-delivery, unlike an additive ingest would be).
type HistogramVec struct {
	name, help string
	labels     []string
	bounds     []float64
	mu         sync.Mutex
	cells      map[string]*histCell
}

type histCell struct {
	counts []uint64
	sum    float64
	count  uint64
}

// HistogramVec registers and returns a labeled histogram.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	v := &HistogramVec{name: name, help: help, labels: labels, bounds: bs, cells: make(map[string]*histCell)}
	r.add(v)
	return v
}

// Observe records one value in the cell identified by the label values.
func (v *HistogramVec) Observe(val float64, values ...string) {
	if math.IsNaN(val) {
		return
	}
	k := cellKey(v.name, v.labels, values)
	i := sort.SearchFloat64s(v.bounds, val)
	v.mu.Lock()
	c, ok := v.cells[k]
	if !ok {
		c = &histCell{counts: make([]uint64, len(v.bounds)+1)}
		v.cells[k] = c
	}
	c.counts[i]++
	c.sum += val
	c.count++
	v.mu.Unlock()
}

// SetSnapshot replaces the cell identified by the label values with a
// pushed snapshot. Snapshots are cumulative on the pushing side, so
// repeated pushes converge instead of double-counting. The snapshot's
// bucket layout must match the vec's.
func (v *HistogramVec) SetSnapshot(s HistogramSnapshot, values ...string) error {
	if !s.valid() {
		return fmt.Errorf("metrics: %s: malformed snapshot (%d bounds, %d counts)", v.name, len(s.Bounds), len(s.Counts))
	}
	if !sameBounds(v.bounds, s.Bounds) {
		return fmt.Errorf("metrics: %s: pushed snapshot has different bucket bounds", v.name)
	}
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	v.cells[k] = &histCell{counts: append([]uint64(nil), s.Counts...), sum: s.Sum, count: s.Count}
	v.mu.Unlock()
	return nil
}

// CellSnapshot returns one cell's snapshot (empty when the cell does not
// exist yet).
func (v *HistogramVec) CellSnapshot(values ...string) HistogramSnapshot {
	k := cellKey(v.name, v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	s := HistogramSnapshot{Bounds: append([]float64(nil), v.bounds...), Counts: make([]uint64, len(v.bounds)+1)}
	if c, ok := v.cells[k]; ok {
		copy(s.Counts, c.counts)
		s.Sum, s.Count = c.sum, c.count
	}
	return s
}

// Merged sums every cell into one cluster-wide snapshot — the federation
// read path behind HistogramFunc series like nnwc_cluster_task_ms.
func (v *HistogramVec) Merged() HistogramSnapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	s := HistogramSnapshot{Bounds: append([]float64(nil), v.bounds...), Counts: make([]uint64, len(v.bounds)+1)}
	for _, c := range v.cells { // accumulation is commutative: order-free
		for i, n := range c.counts {
			s.Counts[i] += n
		}
		s.Sum += c.sum
		s.Count += c.count
	}
	return s
}

func (v *HistogramVec) render(w io.Writer) {
	header(w, v.name, v.help, "histogram")
	type snap struct {
		key  string
		cell HistogramSnapshot
	}
	v.mu.Lock()
	snaps := make([]snap, 0, len(v.cells))
	for k, c := range v.cells {
		snaps = append(snaps, snap{key: k, cell: HistogramSnapshot{
			Bounds: v.bounds,
			Counts: append([]uint64(nil), c.counts...),
			Sum:    c.sum,
			Count:  c.count,
		}})
	}
	v.mu.Unlock()
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].key < snaps[j].key })
	for _, s := range snaps {
		renderHistCells(w, v.name, labelPairs(v.labels, s.key), s.cell)
	}
}

// HistogramFunc renders a histogram snapshot read from fn at exposition
// time — how a merged cluster-wide view of a federation vec is exposed
// without maintaining a second accumulator.
type HistogramFunc struct {
	name, help string
	fn         func() HistogramSnapshot
}

// HistogramFunc registers a render-time histogram.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) *HistogramFunc {
	h := &HistogramFunc{name: name, help: help, fn: fn}
	r.add(h)
	return h
}

func (h *HistogramFunc) render(w io.Writer) {
	s := h.fn()
	if !s.valid() {
		return
	}
	header(w, h.name, h.help, "histogram")
	renderHistCells(w, h.name, "", s)
}
