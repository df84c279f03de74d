package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "test counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	var b strings.Builder
	r.Write(&b)
	want := "# HELP test_total test counter\n# TYPE test_total counter\ntest_total 5\n"
	if b.String() != want {
		t.Fatalf("rendered %q, want %q", b.String(), want)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestCounterVecSortedRendering(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "endpoint", "status")
	v.Inc("/predict", "500")
	v.Add(3, "/predict", "200")
	v.Inc("/healthz", "200")
	if v.Value("/predict", "200") != 3 {
		t.Fatalf("cell = %d, want 3", v.Value("/predict", "200"))
	}
	var b strings.Builder
	r.Write(&b)
	got := b.String()
	want := `# HELP req_total requests
# TYPE req_total counter
req_total{endpoint="/healthz",status="200"} 1
req_total{endpoint="/predict",status="200"} 3
req_total{endpoint="/predict",status="500"} 1
`
	if got != want {
		t.Fatalf("rendered %q, want %q", got, want)
	}
}

func TestVecLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	for name, observe := range map[string]func(){
		"CounterVec":   func() { r.CounterVec("c", "", "a", "b").Inc("only-one") },
		"GaugeVec":     func() { r.GaugeVec("g", "", "a", "b").Set(1, "only-one") },
		"HistogramVec": func() { r.HistogramVec("h", "", []float64{1}, "a", "b").Observe(1, "only-one") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on wrong label arity", name)
				}
			}()
			observe()
		}()
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n uint64 = 3
	r.CounterFunc("c_total", "counter", func() uint64 { return n })
	var b strings.Builder
	r.Write(&b)
	if !strings.Contains(b.String(), "# TYPE c_total counter\nc_total 3\n") {
		t.Fatalf("rendered %q", b.String())
	}
	n = 5
	b.Reset()
	r.Write(&b)
	if !strings.Contains(b.String(), "c_total 5\n") {
		t.Fatalf("counter not re-read at render: %q", b.String())
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	val := 2.5
	r.GaugeFunc("g", "gauge", func() float64 { return val })
	var b strings.Builder
	r.Write(&b)
	if !strings.Contains(b.String(), "g 2.5\n") {
		t.Fatalf("rendered %q", b.String())
	}
	val = 7
	b.Reset()
	r.Write(&b)
	if !strings.Contains(b.String(), "g 7\n") {
		t.Fatalf("gauge not re-read at render: %q", b.String())
	}
}

func TestRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz", "")
	r.Counter("aaa", "")
	var b strings.Builder
	r.Write(&b)
	got := b.String()
	if strings.Index(got, "zzz") > strings.Index(got, "aaa") {
		t.Fatalf("metrics must render in registration order, got %q", got)
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry must be process-wide")
	}
}

func TestGaugeVecSortedRendering(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("inflight", "in-flight requests", "model")
	v.Set(3, "web")
	v.Add(2, "web")
	v.Add(1, "db")
	if v.Value("web") != 5 || v.Value("db") != 1 {
		t.Fatalf("cells web=%g db=%g, want 5 and 1", v.Value("web"), v.Value("db"))
	}
	var b strings.Builder
	r.Write(&b)
	want := `# HELP inflight in-flight requests
# TYPE inflight gauge
inflight{model="db"} 1
inflight{model="web"} 5
`
	if b.String() != want {
		t.Fatalf("rendered %q, want %q", b.String(), want)
	}
}

// TestGaugeVecAddBelowAdmitsExactlyOne races many goroutines for a limit
// of one: check and increment are one locked step, so exactly one wins.
func TestGaugeVecAddBelowAdmitsExactlyOne(t *testing.T) {
	const racers = 64
	for round := 0; round < 20; round++ {
		v := NewRegistry().GaugeVec("inflight", "", "model")
		var admitted atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < racers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if v.AddBelow(1, 1, "web") {
					admitted.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("round %d: %d of %d racers admitted under a limit of 1", round, got, racers)
		}
		if got := v.Value("web"); got != 1 {
			t.Fatalf("round %d: gauge = %g, want 1", round, got)
		}
	}
	// Released capacity admits again; a refused call leaves the cell alone.
	v := NewRegistry().GaugeVec("inflight", "", "model")
	if !v.AddBelow(1, 1, "db") || v.AddBelow(1, 1, "db") {
		t.Fatal("AddBelow must admit once, then refuse at the limit")
	}
	v.Add(-1, "db")
	if !v.AddBelow(1, 1, "db") || v.Value("db") != 1 {
		t.Fatalf("AddBelow after release: gauge = %g, want 1", v.Value("db"))
	}
}
