package metrics

import (
	"strings"
	"testing"
)

func TestHistogramObserveAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ms", "latency", []float64{1, 10, 100})
	h.Observe(0.5) // ≤1
	h.Observe(1)   // ≤1 (inclusive upper edge)
	h.Observe(5)   // ≤10
	h.Observe(500) // +Inf
	var b strings.Builder
	r.Write(&b)
	want := `# HELP lat_ms latency
# TYPE lat_ms histogram
lat_ms_bucket{le="1"} 2
lat_ms_bucket{le="10"} 3
lat_ms_bucket{le="100"} 3
lat_ms_bucket{le="+Inf"} 4
lat_ms_sum 506.5
lat_ms_count 4
`
	if b.String() != want {
		t.Fatalf("rendered:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestDefMillisBucketsResolveSubMillisecond: an uncoalesced in-process
// prediction takes tens of microseconds; it must not share the first
// bucket with everything up to 1 ms.
func TestDefMillisBucketsResolveSubMillisecond(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat_ms", "", DefMillisBuckets).Observe(0.07)
	var b strings.Builder
	r.Write(&b)
	out := b.String()
	for _, want := range []string{
		`lat_ms_bucket{le="0.05"} 0`,
		`lat_ms_bucket{le="0.1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram("x", "", []float64{1})
	h.Observe(nan())
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("NaN observation recorded: %+v", s)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a := NewHistogram("a", "", []float64{1, 10})
	a.Observe(0.5)
	a.Observe(5)
	b := NewHistogram("b", "", []float64{1, 10})
	b.Observe(5)
	b.Observe(50)

	var merged HistogramSnapshot // zero value adopts the first layout
	if err := merged.Merge(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if merged.Count != 4 {
		t.Fatalf("merged count = %d, want 4", merged.Count)
	}
	wantCounts := []uint64{1, 2, 1}
	for i, n := range wantCounts {
		if merged.Counts[i] != n {
			t.Fatalf("merged counts = %v, want %v", merged.Counts, wantCounts)
		}
	}
	if merged.Sum != 60.5 {
		t.Fatalf("merged sum = %g, want 60.5", merged.Sum)
	}

	// Mismatched layouts must refuse to merge rather than mis-bucket.
	c := NewHistogram("c", "", []float64{2, 20})
	c.Observe(1)
	if err := merged.Merge(c.Snapshot()); err == nil {
		t.Fatal("merge with different bounds succeeded")
	}
}

func TestHistogramVecSetSnapshotIsIdempotent(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("task_ms", "tasks", []float64{1, 10}, "worker")
	src := NewHistogram("w", "", []float64{1, 10})
	src.Observe(5)
	src.Observe(5)

	// Pushing the same cumulative snapshot twice must not double-count.
	for i := 0; i < 2; i++ {
		if err := v.SetSnapshot(src.Snapshot(), "w1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.CellSnapshot("w1"); got.Count != 2 {
		t.Fatalf("cell count after re-push = %d, want 2", got.Count)
	}

	// Bounds mismatch is an error, not a corrupt cell.
	bad := NewHistogram("bad", "", []float64{3})
	bad.Observe(1)
	if err := v.SetSnapshot(bad.Snapshot(), "w1"); err == nil {
		t.Fatal("SetSnapshot with different bounds succeeded")
	}
}

func TestHistogramVecMergedAcrossCells(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("task_ms", "tasks", []float64{1, 10}, "worker")
	v.Observe(0.5, "w1")
	v.Observe(5, "w2")
	v.Observe(50, "w2")
	m := v.Merged()
	if m.Count != 3 {
		t.Fatalf("merged count = %d, want 3", m.Count)
	}
	if m.Sum != 55.5 {
		t.Fatalf("merged sum = %g, want 55.5", m.Sum)
	}
	wantCounts := []uint64{1, 1, 1}
	for i, n := range wantCounts {
		if m.Counts[i] != n {
			t.Fatalf("merged counts = %v, want %v", m.Counts, wantCounts)
		}
	}
}

func TestHistogramVecRenderSortedByLabel(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("h", "", []float64{1}, "worker")
	v.Observe(0.5, "b")
	v.Observe(2, "a")
	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	ia, ib := strings.Index(out, `worker="a"`), strings.Index(out, `worker="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("cells not rendered in sorted label order:\n%s", out)
	}
}

func TestHistogramFuncRendersMergedView(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("per_worker", "", []float64{1, 10}, "worker")
	r.HistogramFunc("cluster", "merged view", func() HistogramSnapshot { return v.Merged() })
	v.Observe(5, "w1")
	v.Observe(0.5, "w2")
	var sb strings.Builder
	r.Write(&sb)
	out := sb.String()
	for _, want := range []string{
		`cluster_bucket{le="1"} 1`,
		`cluster_bucket{le="10"} 2`,
		`cluster_bucket{le="+Inf"} 2`,
		"cluster_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkHistogramObserve times one observation on DefMillisBuckets
// (bucket search plus counter bump under the histogram's mutex): what the
// httpx request middleware and a dist worker pay per sample.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench_ms", "observe cost probe", DefMillisBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 50000))
	}
}
