package preprocess

import (
	"math"
	"testing"
	"testing/quick"

	"nnwc/internal/rng"
	"nnwc/internal/stats"
)

func randomRows(src *rng.Source, n, cols int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, cols)
		for j := range rows[i] {
			rows[i][j] = src.Uniform(-50, 200)
		}
	}
	return rows
}

func TestStandardizerMoments(t *testing.T) {
	src := rng.New(1)
	rows := randomRows(src, 200, 3)
	s := NewStandardizer()
	if err := s.Fit(rows); err != nil {
		t.Fatal(err)
	}
	out := TransformAll(s, rows)
	for j := 0; j < 3; j++ {
		col := make([]float64, len(out))
		for i := range out {
			col[i] = out[i][j]
		}
		if m := stats.Mean(col); math.Abs(m) > 1e-9 {
			t.Fatalf("column %d mean %v after standardization", j, m)
		}
		if sd := stats.StdDev(col); math.Abs(sd-1) > 1e-9 {
			t.Fatalf("column %d std %v after standardization", j, sd)
		}
	}
}

func TestStandardizerInverseRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		src := rng.New(seed)
		rows := randomRows(src, 20, 4)
		s := NewStandardizer()
		if err := s.Fit(rows); err != nil {
			return false
		}
		probe := rows[src.Intn(len(rows))]
		back := s.Inverse(s.Transform(probe))
		for j := range probe {
			if math.Abs(back[j]-probe[j]) > 1e-9*(1+math.Abs(probe[j])) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStandardizerConstantColumn(t *testing.T) {
	rows := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s := NewStandardizer()
	if err := s.Fit(rows); err != nil {
		t.Fatal(err)
	}
	out := s.Transform([]float64{5, 2})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Fatalf("constant column produced %v", out[0])
	}
	if out[0] != 0 {
		t.Fatalf("constant column should center to 0, got %v", out[0])
	}
}

func TestStandardizerUnfittedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Transform before Fit did not panic")
		}
	}()
	NewStandardizer().Transform([]float64{1})
}

func TestStandardizerDimsMismatchPanics(t *testing.T) {
	s := NewStandardizer()
	if err := s.Fit([][]float64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dim mismatch did not panic")
		}
	}()
	s.Transform([]float64{1, 2, 3})
}

func TestStandardizerAccessors(t *testing.T) {
	s := NewStandardizer()
	if err := s.Fit([][]float64{{0, 10}, {2, 30}}); err != nil {
		t.Fatal(err)
	}
	if s.Dims() != 2 {
		t.Fatalf("Dims %d", s.Dims())
	}
	mean, std := s.Mean(), s.Std()
	if mean[0] != 1 || mean[1] != 20 {
		t.Fatalf("mean %v", mean)
	}
	if std[0] != 1 || std[1] != 10 {
		t.Fatalf("std %v", std)
	}
	// Accessors must return copies.
	mean[0] = 999
	if s.Mean()[0] == 999 {
		t.Fatal("Mean returned internal storage")
	}
}

// TestStandardizerFrom pins the rebuild from recorded parameters: it
// transforms bit for bit like the fitted scaler it came from, and rejects
// parameters Fit cannot produce.
func TestStandardizerFrom(t *testing.T) {
	fit := NewStandardizer()
	if err := fit.Fit(randomRows(rng.New(3), 7, 3)); err != nil {
		t.Fatal(err)
	}
	back, err := StandardizerFrom(fit.Mean(), fit.Std())
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{0.1, -2.5, 7}
	want, got := fit.Transform(row), back.Transform(row)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("column %d: rebuilt %v, fitted %v", j, got[j], want[j])
		}
	}
	for _, c := range []struct{ mean, std []float64 }{
		{nil, nil},
		{[]float64{1, 2}, []float64{1}},
		{[]float64{1}, []float64{0}},
		{[]float64{1}, []float64{-1}},
		{[]float64{math.NaN()}, []float64{1}},
		{[]float64{1}, []float64{math.Inf(1)}},
	} {
		if _, err := StandardizerFrom(c.mean, c.std); err == nil {
			t.Errorf("accepted mean %v, std %v", c.mean, c.std)
		}
	}
}

func TestFitErrors(t *testing.T) {
	for _, s := range []Scaler{NewStandardizer(), NewMinMax(0, 1), NewIdentity()} {
		if err := s.Fit(nil); err == nil {
			t.Errorf("%T accepted empty rows", s)
		}
		if err := s.Fit([][]float64{{}}); err == nil {
			t.Errorf("%T accepted zero columns", s)
		}
		if err := s.Fit([][]float64{{1, 2}, {3}}); err == nil {
			t.Errorf("%T accepted ragged rows", s)
		}
	}
}

func TestMinMaxRange(t *testing.T) {
	rows := [][]float64{{0, -10}, {10, 10}, {5, 0}}
	m := NewMinMax(0, 1)
	if err := m.Fit(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		out := m.Transform(r)
		for _, v := range out {
			if v < 0 || v > 1 {
				t.Fatalf("MinMax output %v outside [0,1]", v)
			}
		}
	}
	lo := m.Transform([]float64{0, -10})
	hi := m.Transform([]float64{10, 10})
	if lo[0] != 0 || lo[1] != 0 || hi[0] != 1 || hi[1] != 1 {
		t.Fatalf("extremes map to %v and %v", lo, hi)
	}
}

func TestMinMaxInverse(t *testing.T) {
	rows := [][]float64{{3}, {9}}
	m := NewMinMax(-1, 1)
	if err := m.Fit(rows); err != nil {
		t.Fatal(err)
	}
	back := m.Inverse(m.Transform([]float64{6}))
	if math.Abs(back[0]-6) > 1e-12 {
		t.Fatalf("inverse round trip: %v", back[0])
	}
}

func TestMinMaxBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMinMax(1, 0) did not panic")
		}
	}()
	NewMinMax(1, 0)
}

func TestIdentityPassThrough(t *testing.T) {
	id := NewIdentity()
	if err := id.Fit([][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if id.Dims() != 3 {
		t.Fatalf("Dims %d", id.Dims())
	}
	in := []float64{4, 5, 6}
	out := id.Transform(in)
	for j := range in {
		if out[j] != in[j] {
			t.Fatal("identity changed values")
		}
	}
	// Must be a copy, not the same slice.
	out[0] = 99
	if in[0] == 99 {
		t.Fatal("identity returned the input slice")
	}
	inv := id.Inverse(in)
	if inv[2] != 6 {
		t.Fatal("identity inverse wrong")
	}
}

func TestTransformAllInverseAll(t *testing.T) {
	src := rng.New(3)
	rows := randomRows(src, 10, 2)
	s := NewStandardizer()
	if err := s.Fit(rows); err != nil {
		t.Fatal(err)
	}
	back := InverseAll(s, TransformAll(s, rows))
	for i := range rows {
		for j := range rows[i] {
			if math.Abs(back[i][j]-rows[i][j]) > 1e-9 {
				t.Fatal("TransformAll/InverseAll round trip failed")
			}
		}
	}
}
