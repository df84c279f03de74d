package mat

import (
	"fmt"
	"testing"

	"nnwc/internal/rng"
)

// naiveDotSeed is the straight-line reference the unrolled kernels must
// reproduce bit for bit: single accumulator, ascending index.
func naiveDotSeed(s float64, a, b []float64) float64 {
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func randMatrix(src *rng.Source, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = src.Uniform(-2, 2)
	}
	return m
}

// Shapes straddle every tile and unroll boundary: sub-tile, exact-tile,
// tile+1, odd k for the unrolled tail, single row/col for the paired-j tail.
var kernelShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{3, 5, 7},
	{7, 2, 9},
	{blockRows, blockCols, 16},
	{blockRows + 1, blockCols + 1, 17},
	{2*blockRows + 3, 2*blockCols + 5, 33},
	{128, 10, 4},
	{5, 1, 11},
}

func TestDotSeedMatchesNaive(t *testing.T) {
	src := rng.New(11)
	for n := 0; n <= 19; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = src.Uniform(-3, 3), src.Uniform(-3, 3)
		}
		seed := src.Uniform(-1, 1)
		if got, want := DotSeed(seed, a, b), naiveDotSeed(seed, a, b); got != want {
			t.Fatalf("DotSeed len %d: got %x want %x", n, got, want)
		}
		if got, want := Dot(a, b), naiveDotSeed(0, a, b); got != want {
			t.Fatalf("Dot len %d: got %x want %x", n, got, want)
		}
	}
}

func TestAXPYMatchesNaive(t *testing.T) {
	src := rng.New(12)
	for n := 0; n <= 19; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		want := make([]float64, n)
		for i := range x {
			x[i] = src.Uniform(-3, 3)
			y[i] = src.Uniform(-3, 3)
			want[i] = y[i]
		}
		alpha := src.Uniform(-2, 2)
		for i := range want {
			want[i] += alpha * x[i]
		}
		AXPY(alpha, x, y)
		for i := range want {
			if y[i] != want[i] {
				t.Fatalf("AXPY len %d idx %d: got %x want %x", n, i, y[i], want[i])
			}
		}
	}
}

func TestMulTransBiasIntoBitIdentical(t *testing.T) {
	src := rng.New(13)
	for _, sh := range kernelShapes {
		a := randMatrix(src, sh.m, sh.k)
		b := randMatrix(src, sh.n, sh.k)
		bias := make([]float64, sh.n)
		for i := range bias {
			bias[i] = src.Uniform(-1, 1)
		}
		got := MulTransBiasInto(&Matrix{}, a, b, bias)
		if got.Rows != sh.m || got.Cols != sh.n {
			t.Fatalf("shape %v: got %dx%d", sh, got.Rows, got.Cols)
		}
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want := naiveDotSeed(bias[j], a.Row(i), b.Row(j))
				if got.At(i, j) != want {
					t.Fatalf("shape %v cell (%d,%d): got %x want %x", sh, i, j, got.At(i, j), want)
				}
			}
		}

		// nil bias must match the seed-zero naive product and MulTransInto.
		plain := MulTransBiasInto(&Matrix{}, a, b, nil)
		viaTrans := MulTransInto(&Matrix{}, a, b)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				want := naiveDotSeed(0, a.Row(i), b.Row(j))
				if plain.At(i, j) != want || viaTrans.At(i, j) != want {
					t.Fatalf("shape %v nil-bias cell (%d,%d) mismatch", sh, i, j)
				}
			}
		}
	}
}

func TestMulIntoBitIdenticalToAscendingAccumulation(t *testing.T) {
	src := rng.New(14)
	for _, sh := range kernelShapes {
		a := randMatrix(src, sh.m, sh.k)
		b := randMatrix(src, sh.k, sh.n)
		// Plant exact zeros so the sparsity skip path is exercised.
		a.Data[0] = 0
		if len(a.Data) > 3 {
			a.Data[3] = 0
		}
		got := MulInto(&Matrix{}, a, b)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				var want float64
				for k := 0; k < sh.k; k++ {
					want += a.At(i, k) * b.At(k, j)
				}
				if got.At(i, j) != want {
					t.Fatalf("shape %v cell (%d,%d): got %x want %x", sh, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

func TestGradAccumIntoBitIdentical(t *testing.T) {
	src := rng.New(15)
	for _, sh := range kernelShapes {
		batch, outputs, inputs := sh.m, sh.n, sh.k
		delta := randMatrix(src, batch, outputs)
		in := randMatrix(src, batch, inputs)
		scale := 1 / float64(batch)

		dw := New(outputs, inputs)
		db := make([]float64, outputs)
		// Seed with prior contents: the kernel accumulates, not overwrites.
		for i := range dw.Data {
			dw.Data[i] = src.Uniform(-1, 1)
		}
		for i := range db {
			db[i] = src.Uniform(-1, 1)
		}
		wantW := dw.Clone()
		wantB := append([]float64(nil), db...)
		for r := 0; r < batch; r++ {
			drow := delta.Row(r)
			xrow := in.Row(r)
			for o, d := range drow {
				wantB[o] += scale * d
				row := wantW.Row(o)
				for j, xv := range xrow {
					t := d * xv
					row[j] += scale * t
				}
			}
		}

		GradAccumInto(dw, db, delta, in, scale)
		for i := range dw.Data {
			if dw.Data[i] != wantW.Data[i] {
				t.Fatalf("shape %v dw[%d]: got %x want %x", sh, i, dw.Data[i], wantW.Data[i])
			}
		}
		for i := range db {
			if db[i] != wantB[i] {
				t.Fatalf("shape %v db[%d]: got %x want %x", sh, i, db[i], wantB[i])
			}
		}
	}
}

func TestKernelShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected shape panic", name)
			}
		}()
		f()
	}
	expectPanic("MulTransBiasInto k", func() { MulTransBiasInto(&Matrix{}, New(2, 3), New(2, 4), nil) })
	expectPanic("MulTransBiasInto bias", func() { MulTransBiasInto(&Matrix{}, New(2, 3), New(2, 3), make([]float64, 3)) })
	expectPanic("GradAccumInto rows", func() {
		GradAccumInto(New(2, 3), make([]float64, 2), New(4, 2), New(5, 3), 1)
	})
	expectPanic("GradAccumInto cols", func() {
		GradAccumInto(New(2, 4), make([]float64, 2), New(4, 2), New(4, 3), 1)
	})
}

// BenchmarkMulTransBias times dst = A·Bᵀ + bias at rows×inner×cols and
// reports GFLOP/s, counting 2·rows·inner·cols flops per product. 128×2×10
// is the experiment plane's batch·features·hidden product, 128×16×16 a
// hidden layer at a typical batch, and the larger two are where cache
// blocking starts to matter.
func BenchmarkMulTransBias(b *testing.B) {
	for _, s := range [][3]int{{128, 2, 10}, {128, 16, 16}, {256, 32, 32}, {512, 64, 64}} {
		rows, inner, cols := s[0], s[1], s[2]
		b.Run(fmt.Sprintf("%dx%dx%d", rows, inner, cols), func(b *testing.B) {
			src := rng.New(uint64(rows*1000003 + inner*1009 + cols))
			a := randMatrix(src, rows, inner)
			w := randMatrix(src, cols, inner)
			bias := make([]float64, cols)
			dst := &Matrix{}
			MulTransBiasInto(dst, a, w, bias)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulTransBiasInto(dst, a, w, bias)
			}
			flops := 2 * float64(rows*inner*cols) * float64(b.N)
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}
