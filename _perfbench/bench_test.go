package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileRule pins the reporting rule: the highest percentile with
// at least ten samples beyond it, reported with its sample count.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
	}{
		{n: 5, wantQ: 0.5, wantV: 3},
		{n: 99, wantQ: 0.5, wantV: 50},     // p90 would leave 9 beyond
		{n: 100, wantQ: 0.9, wantV: 90},    // p90 leaves exactly 10 beyond
		{n: 999, wantQ: 0.9, wantV: 900},   // p99 would leave 9 beyond
		{n: 1000, wantQ: 0.99, wantV: 990}, // p99 leaves exactly 10 beyond
		{n: 10000, wantQ: 0.999, wantV: 9990},
	} {
		got := highestTail(seq(c.n))
		if got.Q != c.wantQ || got.Value != c.wantV || got.N != c.n {
			t.Errorf("highestTail(%d samples) = %+v, want q=%g value=%g n=%d", c.n, got, c.wantQ, c.wantV, c.n)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if got.Q > 0.5 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g, want at least %d", c.n, beyond, got.Q*100, minBeyond)
		}
	}
	if got := tailAt(seq(99), 0.9); got.Q != 0.5 {
		t.Errorf("tailAt(99 samples, 0.9) = %+v, want the median fallback", got)
	}
	if got := tailAt(seq(1000), 0.9); got.Q != 0.9 || got.Value != 900 {
		t.Errorf("tailAt(1000 samples, 0.9) = %+v, want p90 = 900", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 || !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("median = %g or input reordered: %v", m, xs)
	}
}

// TestSelfTime checks self time over nested, overlapping and overhanging
// child spans.
func TestSelfTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "a.root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "b.child", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b.child", Start: ms(30), End: ms(60)},      // overlaps 2: parallel work
		{ID: 4, Parent: 1, Name: "c.late", Start: ms(90), End: ms(120)},      // runs past its parent
		{ID: 5, Parent: 2, Name: "d.grandchild", Start: ms(15), End: ms(35)}, // covers only its parent
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"a.root":       {Name: "a.root", Count: 1, Total: ms(100), Self: ms(40)}, // 100 - [10,60] - [90,100]
		"b.child":      {Name: "b.child", Count: 2, Total: ms(60), Self: ms(40)}, // span 2 loses 20 to span 5
		"c.late":       {Name: "c.late", Count: 1, Total: ms(30), Self: ms(30)},
		"d.grandchild": {Name: "d.grandchild", Count: 1, Total: ms(20), Self: ms(20)},
	}
	if len(got) != len(want) {
		t.Fatalf("selfTimes names = %v, want %v", got, want)
	}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("%s = %+v, want %+v", n, got[n], w)
		}
	}
	if l := layerOf("threetier.collect"); l != "threetier" {
		t.Errorf("layerOf = %q", l)
	}
}

// TestRecorderNilIsOff checks that the untraced run's nil recorder
// records nothing and still runs the wrapped call.
func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	ran := false
	if err := r.around("x.y", 0, func(int64) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("nil recorder: ran=%v err=%v", ran, err)
	}
	r = newRecorder()
	outer := r.begin("x.outer", 0, 7)
	inner := r.begin("x.inner", outer, 7)
	open := r.begin("x.open", 0, 0)
	r.end(inner)
	r.end(outer)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].Req != 7 || open == 0 {
		t.Fatalf("snapshot = %+v, want the two closed spans, inner under outer", got)
	}
}

// TestMetricNames checks the name pattern, and that every name in
// BENCHMARK.json matches it.
func TestMetricNames(t *testing.T) {
	m := metrics{}
	for _, ok := range []string{"setup_s", "serve.http_ms.p50", "threetier.collect-share", "A9"} {
		if err := m.set(ok, "s", 1); err != nil {
			t.Errorf("set(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "has space", "a/b", "p99%", "é"} {
		if err := m.set(bad, "s", 1); err == nil {
			t.Errorf("set(%q) accepted a malformed name", bad)
		}
	}
	if err := m.set("nan", "s", math.NaN()); err == nil {
		t.Error("set accepted NaN")
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, x := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(x.Name) {
			t.Errorf("BENCHMARK.json metric %q does not match %s", x.Name, metricName)
		}
	}
}

// TestScheduleDeterminism checks that a seed fixes the schedule and that
// its mean gap matches the rate.
func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(42, 200, 2000)
	if !slices.Equal(a, poissonSchedule(42, 200, 2000)) {
		t.Fatal("same seed and rate gave different schedules")
	}
	if slices.Equal(a, poissonSchedule(43, 200, 2000)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if slices.Equal(a, poissonSchedule(42, 700, 2000)) {
		t.Fatal("different rates gave the same schedule")
	}
	if !slices.IsSorted(a) {
		t.Fatal("schedule is not in time order")
	}
	gap := a[len(a)-1].Seconds() / float64(len(a))
	if math.Abs(gap-1.0/200) > 0.1/200 {
		t.Errorf("mean gap %.6f s, want about %.6f s", gap, 1.0/200)
	}
	if !slices.Equal(rowPool(5, 64)[7], rowPool(5, 64)[7]) {
		t.Error("row pool differs for one seed")
	}
}

// TestFailCounting checks that errors and wrong answers both count as
// failed, and that only successful requests contribute latencies.
func TestFailCounting(t *testing.T) {
	var tl tally
	tl.record(true)
	tl.record(false)
	tl.add(tally{Attempted: 2, Failed: 1})
	if tl != (tally{Attempted: 4, Failed: 2}) || tl.failRatio() != 0.5 {
		t.Fatalf("tally = %+v ratio %g", tl, tl.failRatio())
	}
	if (tally{}).failRatio() != 0 {
		t.Error("empty tally has a non-zero fail ratio")
	}

	sched := make([]time.Duration, 30)
	for i := range sched {
		sched[i] = time.Duration(i) * time.Millisecond
	}
	r := openLoop(context.Background(), sched, 2, func(w, i int) (bool, error) {
		switch i % 3 {
		case 1:
			return false, nil // wrong answer
		case 2:
			return true, context.DeadlineExceeded // error
		}
		return true, nil
	})
	if r.Tally != (tally{Attempted: 30, Failed: 20}) {
		t.Errorf("openLoop tally = %+v, want 30 attempted, 20 failed", r.Tally)
	}
	if len(r.Latency) != 10 || len(r.Index) != 10 || r.Index[1] != 3 {
		t.Errorf("latencies of %d successes, indices %v", len(r.Latency), r.Index)
	}
	if len(r.Lag) != 30 || len(r.Backlog) != 30 {
		t.Errorf("lag %d and backlog %d entries, want one per request", len(r.Lag), len(r.Backlog))
	}
}

// TestBacklogGrowth checks the growing-backlog rule on bounded and
// linearly growing backlogs.
func TestBacklogGrowth(t *testing.T) {
	bounded := openResult{Backlog: []int{0, 1, 3, 0, 2, 1, 0, 4, 1, 0, 2, 3}}
	if bounded.growing(2) {
		t.Error("a bounded, bursty backlog was reported as growing")
	}
	var linear openResult
	for i := 0; i < 90; i++ {
		linear.Backlog = append(linear.Backlog, i/6)
	}
	if !linear.growing(2) {
		t.Error("a backlog growing by one per six arrivals was not reported")
	}
	step := ladderStep{P90: tail{Q: 0.9, Value: 9}, Tally: tally{Attempted: 100}}
	if !step.meets(10) {
		t.Error("a rung under the limit was rejected")
	}
	for _, s := range []ladderStep{
		{P90: tail{Q: 0.9, Value: 11}, Tally: tally{Attempted: 100}},
		{P90: tail{Q: 0.5, Value: 1}, Tally: tally{Attempted: 100}},
		{P90: tail{Q: 0.9, Value: 1}, Growing: true},
		{P90: tail{Q: 0.9, Value: 1}, Tally: tally{Attempted: 100, Failed: 1}},
	} {
		if s.meets(10) {
			t.Errorf("rung %+v met the limit", s)
		}
	}
}

// TestPeakHeap checks the median of per-window heap peaks.
func TestPeakHeap(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mb := uint64(1 << 20)
	samples := []heapSample{
		{at(0), 1 * mb}, {at(400), 3 * mb}, // window 1 peaks at 3
		{at(1000), 2 * mb}, {at(1500), 9 * mb}, // window 2 peaks at 9: one late collection
		{at(2100), 4 * mb}, {at(2900), 1 * mb}, // window 3 peaks at 4
		{at(3500), 50 * mb}, // after the last edge: ignored
	}
	edges := everySecond(at(0), at(3000))
	if len(edges) != 4 || !edges[3].Equal(at(3000)) {
		t.Fatalf("everySecond = %v", edges)
	}
	if got := peakHeapMB(samples, edges); got != 4 {
		t.Errorf("peakHeapMB = %g, want the median peak 4", got)
	}
}
