// Command kernelbench benchmarks the compute kernels the training and
// serve planes ride — the tiled matmul in internal/mat, the batched
// forward pass in internal/nn, and the batched backprop in
// internal/train — and emits a machine-readable JSON report
// (BENCH_kernels.json) so kernel regressions show up in the perf
// trajectory next to BENCH_experiments.json.
//
// Usage:
//
//	kernelbench [-out BENCH_kernels.json] [-quick]
//
// The matmul section reports GFLOP/s per shape (rows×inner×cols, counting
// 2·r·i·c flops per multiply). The forward/backprop sections report ns per
// op and ns per sample at a fixed batch size. See DESIGN.md §13 for the
// schema and the techniques being measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"nnwc/internal/mat"
	"nnwc/internal/nn"
	"nnwc/internal/rng"
	"nnwc/internal/train"
)

// matmulEntry is one tiled-matmul measurement: dst = A·Bᵀ + bias with
// A rows×inner and B cols×inner.
type matmulEntry struct {
	Shape   string  `json:"shape"` // "rows x inner x cols"
	Rows    int     `json:"rows"`
	Inner   int     `json:"inner"`
	Cols    int     `json:"cols"`
	NsPerOp int64   `json:"ns_per_op"`
	GFLOPS  float64 `json:"gflops"`
}

// forwardEntry is one batched-forward measurement on an n→hidden→m net.
type forwardEntry struct {
	Net         string  `json:"net"` // "4-16-5"
	Batch       int     `json:"batch"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerSample float64 `json:"ns_per_sample"`
}

// backpropEntry is one batched-backprop measurement.
type backpropEntry struct {
	Net         string  `json:"net"`
	Batch       int     `json:"batch"`
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerSample float64 `json:"ns_per_sample"`
}

type report struct {
	GoVersion  string          `json:"go_version"`
	NumCPU     int             `json:"num_cpu"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Quick      bool            `json:"quick"`
	Matmul     []matmulEntry   `json:"matmul"`
	Forward    []forwardEntry  `json:"forward"`
	Backprop   []backpropEntry `json:"backprop"`
}

func main() {
	var (
		out   = flag.String("out", "BENCH_kernels.json", "output JSON path")
		quick = flag.Bool("quick", false, "fewer shapes (CI smoke)")
	)
	flag.Parse()

	shapes := [][3]int{
		{128, 2, 10},  // the experiment plane's batch·features·hidden shape
		{128, 16, 16}, // hidden-layer product at typical batch size
		{256, 32, 32},
		{512, 64, 64}, // cache-blocking starts to matter here
	}
	nets := [][]int{
		{4, 16, 5}, // the paper's TPC-W-sized topology
		{7, 24, 24, 3},
	}
	if *quick {
		shapes = shapes[:2]
		nets = nets[:1]
	}
	const batch = 64

	rep := report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	for _, s := range shapes {
		rep.Matmul = append(rep.Matmul, benchMatmul(s[0], s[1], s[2]))
	}
	for _, sizes := range nets {
		rep.Forward = append(rep.Forward, benchForward(sizes, batch))
		rep.Backprop = append(rep.Backprop, benchBackprop(sizes, batch))
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kernelbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "kernelbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d matmul, %d forward, %d backprop entries)\n",
		*out, len(rep.Matmul), len(rep.Forward), len(rep.Backprop))
}

// benchMatmul times dst = A·Bᵀ + bias at rows×inner×cols and derives
// GFLOP/s (2·r·i·c flops per product).
func benchMatmul(rows, inner, cols int) matmulEntry {
	src := rng.New(uint64(rows*1000003 + inner*1009 + cols))
	a := randMatrix(src, rows, inner)
	b := randMatrix(src, cols, inner)
	bias := make([]float64, cols)
	for i := range bias {
		bias[i] = src.Uniform(-1, 1)
	}
	var dst mat.Matrix
	r := testing.Benchmark(func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			mat.MulTransBiasInto(&dst, a, b, bias)
		}
	})

	flops := 2 * float64(rows) * float64(inner) * float64(cols)
	e := matmulEntry{
		Shape:   fmt.Sprintf("%dx%dx%d", rows, inner, cols),
		Rows:    rows,
		Inner:   inner,
		Cols:    cols,
		NsPerOp: r.NsPerOp(),
		GFLOPS:  round3(flops / float64(r.NsPerOp())),
	}
	fmt.Printf("matmul   %-12s %10d ns/op %8.3f GFLOP/s\n", e.Shape, e.NsPerOp, e.GFLOPS)
	return e
}

// benchForward times the batched forward pass of a freshly initialized net.
func benchForward(sizes []int, batch int) forwardEntry {
	net, X := buildNet(sizes, batch)
	var ws nn.BatchWorkspace
	r := testing.Benchmark(func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			net.ForwardBatch(X, &ws)
		}
	})

	e := forwardEntry{
		Net:         netName(sizes),
		Batch:       batch,
		NsPerOp:     r.NsPerOp(),
		NsPerSample: round3(float64(r.NsPerOp()) / float64(batch)),
	}
	fmt.Printf("forward  %-12s %10d ns/op %8.1f ns/sample\n", e.Net, e.NsPerOp, e.NsPerSample)
	return e
}

// benchBackprop times one full-batch gradient computation.
func benchBackprop(sizes []int, batch int) backpropEntry {
	net, X := buildNet(sizes, batch)
	src := rng.New(99)
	Y := randMatrix(src, batch, sizes[len(sizes)-1])
	var ws train.Workspace
	g := train.NewGradients(net)
	scale := 1.0 / float64(batch)
	r := testing.Benchmark(func(bm *testing.B) {
		for i := 0; i < bm.N; i++ {
			train.BackpropBatch(net, X, Y, scale, &ws, g)
		}
	})
	e := backpropEntry{
		Net:         netName(sizes),
		Batch:       batch,
		NsPerOp:     r.NsPerOp(),
		NsPerSample: round3(float64(r.NsPerOp()) / float64(batch)),
	}
	fmt.Printf("backprop %-12s %10d ns/op %8.1f ns/sample\n", e.Net, e.NsPerOp, e.NsPerSample)
	return e
}

// buildNet returns an initialized net of the given sizes and a random
// input batch.
func buildNet(sizes []int, batch int) (*nn.Network, *mat.Matrix) {
	net := nn.NewNetwork(sizes, nn.Logistic{Alpha: 1}, nn.Identity{})
	src := rng.New(uint64(7 + len(sizes)))
	nn.XavierInit{}.Init(net, src)
	return net, randMatrix(src, batch, sizes[0])
}

func randMatrix(src *rng.Source, rows, cols int) *mat.Matrix {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Uniform(-1, 1)
	}
	return m
}

func netName(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		parts[i] = strconv.Itoa(s)
	}
	return strings.Join(parts, "-")
}

func round3(x float64) float64 { return math.Round(x*1000) / 1000 }
