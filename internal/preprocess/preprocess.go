// Package preprocess implements the sample pre-processing step of §3.1:
// z-score standardization of configuration parameters (always) and of
// performance indicators (when approximating several at once), so that
// gradient-descent back-propagation does not start with hyperplanes that
// miss the sample cloud and fall into local minima.
//
// Scalers follow the fit/transform/inverse-transform contract: Fit learns
// the column statistics from training data only; Transform and Inverse are
// then deterministic maps usable on unseen data.
package preprocess

import (
	"errors"
	"fmt"
	"math"

	"nnwc/internal/stats"
)

// ErrNotFitted is returned when Transform or Inverse is called before Fit.
var ErrNotFitted = errors.New("preprocess: scaler has not been fitted")

// Scaler maps row vectors to a normalized space and back.
type Scaler interface {
	// Fit learns the transform from the given rows.
	Fit(rows [][]float64) error
	// Transform maps one row into normalized space, returning a new slice.
	Transform(row []float64) []float64
	// Inverse maps one normalized row back to the original space.
	Inverse(row []float64) []float64
	// Dims returns the column count the scaler was fitted with, or 0.
	Dims() int
}

// Standardizer is the paper's z-score scaler: (x − mean) / std per column.
// Columns with zero variance are passed through centered only (divisor 1),
// so constant configuration parameters do not produce NaNs.
type Standardizer struct {
	mean, std []float64
}

// NewStandardizer returns an unfitted Standardizer.
func NewStandardizer() *Standardizer { return &Standardizer{} }

// Fit learns per-column mean and standard deviation.
func (s *Standardizer) Fit(rows [][]float64) error {
	cols, err := columnCount(rows)
	if err != nil {
		return err
	}
	s.mean = make([]float64, cols)
	s.std = make([]float64, cols)
	col := make([]float64, len(rows))
	for j := 0; j < cols; j++ {
		for i, r := range rows {
			col[i] = r[j]
		}
		s.mean[j] = stats.Mean(col)
		sd := stats.StdDev(col)
		if stats.ExactZero(sd) {
			sd = 1
		}
		s.std[j] = sd
	}
	return nil
}

// StandardizerFrom rebuilds a fitted Standardizer from the per-column
// means and standard deviations Mean and Std report, copying both. Every
// mean must be finite and every std finite and positive, as Fit leaves
// them.
func StandardizerFrom(mean, std []float64) (*Standardizer, error) {
	if len(mean) == 0 || len(mean) != len(std) {
		return nil, fmt.Errorf("preprocess: standardizer has %d means and %d stds", len(mean), len(std))
	}
	for j := range mean {
		if math.IsNaN(mean[j]) || math.IsInf(mean[j], 0) || !(std[j] > 0) || math.IsInf(std[j], 1) {
			return nil, fmt.Errorf("preprocess: standardizer column %d has mean %v, std %v", j, mean[j], std[j])
		}
	}
	return &Standardizer{
		mean: append([]float64(nil), mean...),
		std:  append([]float64(nil), std...),
	}, nil
}

// Transform standardizes one row.
func (s *Standardizer) Transform(row []float64) []float64 {
	s.mustFitted(len(row))
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.mean[j]) / s.std[j]
	}
	return out
}

// Inverse undoes Transform.
func (s *Standardizer) Inverse(row []float64) []float64 {
	s.mustFitted(len(row))
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = v*s.std[j] + s.mean[j]
	}
	return out
}

// Dims returns the fitted column count.
func (s *Standardizer) Dims() int { return len(s.mean) }

// Mean returns the fitted per-column means (a copy).
func (s *Standardizer) Mean() []float64 { return append([]float64(nil), s.mean...) }

// Std returns the fitted per-column standard deviations (a copy).
func (s *Standardizer) Std() []float64 { return append([]float64(nil), s.std...) }

func (s *Standardizer) mustFitted(n int) {
	if len(s.mean) == 0 {
		panic(ErrNotFitted)
	}
	if n != len(s.mean) {
		panic(fmt.Sprintf("preprocess: row has %d columns, scaler fitted with %d", n, len(s.mean)))
	}
}

// MinMax scales each column linearly into [lo, hi]. It is provided as an
// alternative normalization for comparison with the paper's z-score choice.
type MinMax struct {
	lo, hi     float64
	min, rangw []float64
}

// NewMinMax returns a scaler targeting [lo, hi]. It panics if hi <= lo.
func NewMinMax(lo, hi float64) *MinMax {
	if hi <= lo {
		panic("preprocess: MinMax requires hi > lo")
	}
	return &MinMax{lo: lo, hi: hi}
}

// Fit learns per-column minima and ranges.
func (m *MinMax) Fit(rows [][]float64) error {
	cols, err := columnCount(rows)
	if err != nil {
		return err
	}
	m.min = make([]float64, cols)
	m.rangw = make([]float64, cols)
	for j := 0; j < cols; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range rows {
			if r[j] < lo {
				lo = r[j]
			}
			if r[j] > hi {
				hi = r[j]
			}
		}
		m.min[j] = lo
		w := hi - lo
		if stats.ExactZero(w) {
			w = 1
		}
		m.rangw[j] = w
	}
	return nil
}

// Transform maps one row into [lo, hi] per column.
func (m *MinMax) Transform(row []float64) []float64 {
	m.mustFitted(len(row))
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = m.lo + (m.hi-m.lo)*(v-m.min[j])/m.rangw[j]
	}
	return out
}

// Inverse undoes Transform.
func (m *MinMax) Inverse(row []float64) []float64 {
	m.mustFitted(len(row))
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = m.min[j] + (v-m.lo)/(m.hi-m.lo)*m.rangw[j]
	}
	return out
}

// Dims returns the fitted column count.
func (m *MinMax) Dims() int { return len(m.min) }

func (m *MinMax) mustFitted(n int) {
	if len(m.min) == 0 {
		panic(ErrNotFitted)
	}
	if n != len(m.min) {
		panic(fmt.Sprintf("preprocess: row has %d columns, scaler fitted with %d", n, len(m.min)))
	}
}

// Identity is a no-op Scaler, used when the paper's protocol says not to
// standardize (single performance indicator, §3.1).
type Identity struct{ dims int }

// NewIdentity returns an Identity scaler.
func NewIdentity() *Identity { return &Identity{} }

// Fit records the column count.
func (id *Identity) Fit(rows [][]float64) error {
	cols, err := columnCount(rows)
	if err != nil {
		return err
	}
	id.dims = cols
	return nil
}

// Transform returns a copy of row.
func (id *Identity) Transform(row []float64) []float64 {
	return append([]float64(nil), row...)
}

// Inverse returns a copy of row.
func (id *Identity) Inverse(row []float64) []float64 {
	return append([]float64(nil), row...)
}

// Dims returns the fitted column count.
func (id *Identity) Dims() int { return id.dims }

// TransformInto standardizes row into caller-owned dst (same length) without
// allocating for the scalers this package ships, devirtualizing on the
// concrete type once per row like nn.EvalRow; unknown Scaler implementations
// fall back to the allocating Transform. The arithmetic per element is
// identical to Transform. dst may alias row.
//
//nnwc:hotpath
func TransformInto(s Scaler, dst, row []float64) {
	if len(dst) != len(row) {
		panic(fmt.Sprintf("preprocess: TransformInto dst has %d entries, row %d", len(dst), len(row)))
	}
	switch sc := s.(type) {
	case *Standardizer:
		sc.mustFitted(len(row))
		for j, v := range row {
			dst[j] = (v - sc.mean[j]) / sc.std[j]
		}
	case *MinMax:
		sc.mustFitted(len(row))
		for j, v := range row {
			dst[j] = sc.lo + (sc.hi-sc.lo)*(v-sc.min[j])/sc.rangw[j]
		}
	case *Identity:
		copy(dst, row)
	default:
		transformFallback(s, dst, row)
	}
}

// transformFallback serves foreign Scaler implementations through the
// allocating Transform; the shipped scalers take the in-place paths in
// TransformInto. Kept out of the hot-path tag so the allocation is
// attributed to the foreign scaler, not the kernel.
func transformFallback(s Scaler, dst, row []float64) {
	copy(dst, s.Transform(row))
}

// InverseInto undoes TransformInto into caller-owned dst with the same
// devirtualization and zero-allocation contract. dst may alias row.
//
//nnwc:hotpath
func InverseInto(s Scaler, dst, row []float64) {
	if len(dst) != len(row) {
		panic(fmt.Sprintf("preprocess: InverseInto dst has %d entries, row %d", len(dst), len(row)))
	}
	switch sc := s.(type) {
	case *Standardizer:
		sc.mustFitted(len(row))
		for j, v := range row {
			dst[j] = v*sc.std[j] + sc.mean[j]
		}
	case *MinMax:
		sc.mustFitted(len(row))
		for j, v := range row {
			dst[j] = sc.min[j] + (v-sc.lo)/(sc.hi-sc.lo)*sc.rangw[j]
		}
	case *Identity:
		copy(dst, row)
	default:
		inverseFallback(s, dst, row)
	}
}

// inverseFallback is transformFallback's counterpart for Inverse.
func inverseFallback(s Scaler, dst, row []float64) {
	copy(dst, s.Inverse(row))
}

// TransformAll applies s.Transform to every row.
func TransformAll(s Scaler, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Transform(r)
	}
	return out
}

// InverseAll applies s.Inverse to every row.
func InverseAll(s Scaler, rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, r := range rows {
		out[i] = s.Inverse(r)
	}
	return out
}

func columnCount(rows [][]float64) (int, error) {
	if len(rows) == 0 {
		return 0, errors.New("preprocess: cannot fit on zero rows")
	}
	cols := len(rows[0])
	if cols == 0 {
		return 0, errors.New("preprocess: cannot fit on zero columns")
	}
	for i, r := range rows {
		if len(r) != cols {
			return 0, fmt.Errorf("preprocess: row %d has %d columns, want %d", i, len(r), cols)
		}
	}
	return cols, nil
}
