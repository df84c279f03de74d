package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nnwc/internal/stats"
)

// benchClients is the closed-loop client count of the serve benchmarks.
// Coalescing pays off under concurrent load, which is a property of the
// arrival rate, not the core count, so even a small machine is driven
// hard enough to fill batches.
const benchClients = 32

// benchFleetHidden are the fleet's three network shapes; its eight tenants
// are assigned to them round-robin (w0, w3 and w6 share the first).
var benchFleetHidden = []int{6, 3, 12}

const benchFleetTenants = 8

// BenchmarkPredict drives the server with benchClients closed-loop
// clients, single-request (MaxBatch 1) against coalesced (MaxBatch 64,
// MaxWait 500µs), on three paths:
//
//   - inproc: Server.Predict, the handler's inference path without HTTP,
//     which isolates what micro-batching buys;
//   - http: POST /predict over loopback;
//   - fleet: eight tenants over three shapes through Server.PredictRef,
//     each client cycling through the tenants, so tenants that share a
//     shape fill one batch domain together.
//
// ns/op is wall time per request across all clients; req/s, the clients'
// p50/p99 latency and the mean rows per forward call are reported too.
func BenchmarkPredict(b *testing.B) {
	dir := b.TempDir()
	single := writeTestModel(b, dir, 1)
	paths := make([]string, len(benchFleetHidden))
	for i, hidden := range benchFleetHidden {
		paths[i] = filepath.Join(dir, fmt.Sprintf("fleet-%d.json", hidden))
		if err := trainHiddenModel(b, uint64(i+1), hidden).SaveFile(paths[i]); err != nil {
			b.Fatal(err)
		}
	}
	fleet := make(map[string]string, benchFleetTenants)
	tenants := make([]string, benchFleetTenants)
	for t := range tenants {
		tenants[t] = fmt.Sprintf("w%d", t)
		fleet[tenants[t]] = paths[t%len(paths)]
	}

	ctx := context.Background()
	x := []float64{1, 1}
	body := []byte(`{"x":[1,1]}`)
	for _, maxBatch := range []int{1, 64} {
		cfg := Config{MaxBatch: maxBatch}
		if maxBatch > 1 {
			cfg.MaxWait = 500 * time.Microsecond
		}
		b.Run(fmt.Sprintf("inproc/maxbatch=%d", maxBatch), func(b *testing.B) {
			c := cfg
			c.ModelPath = single
			s, _ := newTestServer(b, c)
			closedLoop(b, s, func(int) error {
				_, err := s.Predict(ctx, x)
				return err
			})
		})
		b.Run(fmt.Sprintf("http/maxbatch=%d", maxBatch), func(b *testing.B) {
			c := cfg
			c.ModelPath = single
			s, ts := newTestServer(b, c)
			tr := &http.Transport{MaxIdleConnsPerHost: benchClients}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			closedLoop(b, s, func(int) error {
				return benchPost(client, ts.URL+"/predict", body)
			})
		})
		b.Run(fmt.Sprintf("fleet/maxbatch=%d", maxBatch), func(b *testing.B) {
			c := cfg
			c.Models, c.WarmModels = fleet, 2*benchFleetTenants
			s, _ := newTestServer(b, c)
			closedLoop(b, s, func(i int) error {
				_, err := s.PredictRef(ctx, tenants[i%len(tenants)], x)
				return err
			})
		})
	}
}

// closedLoop warms s up with one request per client, then runs b.N calls
// of op from benchClients goroutines and reports throughput, latency
// quantiles and rows per batch. op receives a per-client counter that
// starts at the client's index.
func closedLoop(b *testing.B, s *Server, op func(i int) error) {
	b.Helper()
	for i := 0; i < benchClients; i++ {
		if err := op(i); err != nil {
			b.Fatal(err)
		}
	}
	batches0, rows0 := s.metrics.batchStats()
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((benchClients + procs - 1) / procs)

	var (
		mu      sync.Mutex
		latency []float64 // milliseconds, every client's observations
		client  atomic.Int64
	)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(client.Add(1) - 1)
		var own []float64
		for ; pb.Next(); i++ {
			t0 := time.Now()
			if err := op(i); err != nil {
				b.Error(err)
				return
			}
			own = append(own, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		mu.Lock()
		latency = append(latency, own...)
		mu.Unlock()
	})
	b.StopTimer()

	batches, rows := s.metrics.batchStats()
	if len(latency) == 0 || batches == batches0 {
		return
	}
	b.ReportMetric(float64(len(latency))/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(stats.Quantile(latency, 0.50), "p50-ms")
	b.ReportMetric(stats.Quantile(latency, 0.99), "p99-ms")
	b.ReportMetric(float64(rows-rows0)/float64(batches-batches0), "rows/batch")
}

func benchPost(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}
