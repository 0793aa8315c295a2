package mathx

import (
	"math"
	"sort"
)

// ApproxEq reports whether a and b agree within tol, using an absolute
// comparison near zero and a relative one otherwise. It is the comparison
// the floateq analyzer (internal/lint) points float `==`/`!=` sites at:
// outside of exact sentinel checks and comparator tie-breaks, two computed
// floats should be compared with an explicit tolerance.
func ApproxEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	return d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	sd := Std(xs)
	return sd * sd
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs and leaves it unchanged.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for a slice the caller has already sorted
// ascending: no copy, no sort, so several percentiles of one sample cost one
// sort between them.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// SMAPE returns the Symmetric Mean Absolute Percentage Error (in percent)
// between predictions and ground truth, as used by the paper's Fig. 11(b).
// Pairs where both values are zero contribute zero error.
func SMAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("mathx: SMAPE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i := range pred {
		denom := (math.Abs(pred[i]) + math.Abs(truth[i])) / 2
		if denom == 0 { //lint:allow floateq division guard: only an exact zero denominator is undefined
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / denom
	}
	return s / float64(len(pred)) * 100
}

// MAPE returns the Mean Absolute Percentage Error (in percent). Pairs with a
// zero truth value are skipped.
func MAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("mathx: MAPE length mismatch")
	}
	n := 0
	s := 0.0
	for i := range pred {
		if truth[i] == 0 { //lint:allow floateq division guard: only an exact zero truth value is undefined, and truth may be negative
			continue
		}
		s += math.Abs(pred[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n) * 100
}

// VarianceToMeanRatio returns Var(xs)/Mean(xs); the paper's predictor test
// trace has VMR > 2. Returns 0 when the mean is zero.
func VarianceToMeanRatio(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 { //lint:allow floateq division guard: only an exact zero mean is undefined, and the mean may be negative
		return 0
	}
	return Variance(xs) / mu
}
