package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail read off fewer samples is mostly noise.
const minBeyond = 10

// quantile returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// rank is the zero-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is one reported percentile together with the sample count it was
// read from, as the choosing-metrics rule asks.
type tail struct {
	Q     float64 // 0.5, 0.9, 0.99 or 0.999
	Value float64
	N     int
}

func (t tail) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d)", t.Q*100, t.Value, t.N)
}

// supports reports whether n samples leave at least minBeyond samples
// strictly above the q-quantile.
func supports(n int, q float64) bool { return n-1-rank(n, q) >= minBeyond }

// highestTail returns the highest of p99.9, p99, p90 that has at least
// minBeyond samples beyond it, falling back to the median when the sample
// is too small for any of them.
func highestTail(xs []float64) tail {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if supports(len(xs), q) {
			return tail{Q: q, Value: quantile(xs, q), N: len(xs)}
		}
	}
	return tail{Q: 0.5, Value: median(xs), N: len(xs)}
}

// tailAt returns the q-quantile when the sample supports it, else the
// median: a sample too small for q is too small for every higher
// percentile as well.
func tailAt(xs []float64, q float64) tail {
	if supports(len(xs), q) {
		return tail{Q: q, Value: quantile(xs, q), N: len(xs)}
	}
	return tail{Q: 0.5, Value: median(xs), N: len(xs)}
}

// windowed returns the median, over consecutive windows of xs holding
// size samples each, of each window's q-quantile (q = 0.5 for medians).
// One burst of outside noise then moves one window, not the figure; a
// trailing partial window is dropped, and fewer samples than one window
// give the plain statistic.
func windowed(xs []float64, size int, q float64) float64 {
	if len(xs) < 2*size {
		return tailAt(xs, q).Value
	}
	var per []float64
	for lo := 0; lo+size <= len(xs); lo += size {
		per = append(per, tailAt(xs[lo:lo+size], q).Value)
	}
	return median(per)
}

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values, rejecting malformed names and values
// that cannot be encoded as JSON numbers.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	m[name] = metric{Value: v, Unit: unit}
	return nil
}

// tally counts operations attempted and failed. A failure is an error or
// an answer that does not match the reference.
type tally struct {
	Attempted, Failed int
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

func (t *tally) record(ok bool) {
	t.Attempted++
	if !ok {
		t.Failed++
	}
}

// failRatio is failed over attempted, 0 when nothing was attempted.
func (t tally) failRatio() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}
