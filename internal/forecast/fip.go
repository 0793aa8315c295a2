package forecast

import (
	"math"
	"math/cmplx"
	"sort"
)

// fipForecaster is IceBreaker's training-free Fourier-based invocation
// predictor (Roy et al., ASPLOS'22), a Fig. 12 baseline: the recent history
// is transformed with an FFT, the fipTopK dominant harmonics are kept, and
// the truncated spectrum is extrapolated one step into the future. The
// spectrum is refit from the trailing window on every prediction, so Fit only
// installs the history.
type fipForecaster struct {
	series
	cfg    Config
	fitted bool
}

const (
	// fipWindow bounds the history a step transforms.
	fipWindow = 512
	// fipTopK is the number of dominant harmonics retained.
	fipTopK = 8
)

func (f *fipForecaster) Name() string { return "fip" }

func (f *fipForecaster) Fit(hist []Observation) error {
	if len(hist) < 2 {
		return ErrShortSeries
	}
	f.replace(hist)
	f.fitted = true
	return nil
}

func (f *fipForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if !f.fitted {
		return persistence(f.hist, horizon)
	}
	return rollForward(f.tail(fipWindow+horizon), horizon, fipStep)
}

func (f *fipForecaster) Update(obs Observation) { f.append(obs) }

func (f *fipForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &fipForecaster{cfg: cfg}
}

// fipStep is the one-step Fourier extrapolation after h, which is not empty.
func fipStep(h []Observation) float64 {
	// Transform the largest power of two within both len(h) and fipWindow.
	n := 1
	for n*2 <= len(h) && n*2 <= fipWindow {
		n *= 2
	}
	seg := make([]complex128, n)
	for i, o := range h[len(h)-n:] {
		seg[i] = complex(o.Value, 0)
	}
	spec := fft(seg, false)

	// Rank harmonics by amplitude, keep DC plus the fipTopK strongest.
	type harm struct {
		idx int
		amp float64
	}
	hs := make([]harm, 0, n)
	for i := 1; i < n; i++ {
		hs = append(hs, harm{i, cmplx.Abs(spec[i])})
	}
	sort.Slice(hs, func(a, b int) bool { return hs[a].amp > hs[b].amp })
	keep := map[int]bool{0: true}
	for i := 0; i < fipTopK && i < len(hs); i++ {
		keep[hs[i].idx] = true
	}
	// Extrapolate the truncated Fourier series one step ahead. The DFT
	// basis is n-periodic, so t = n coincides with t = 0: the prediction is
	// the low-pass reconstruction at the window start — the periodic-
	// extension assumption at the heart of FIP. Harmonics are summed in
	// index order: float addition is not associative, and summing in map
	// order would make the prediction vary run to run.
	kept := make([]int, 0, len(keep))
	for k := range keep {
		kept = append(kept, k)
	}
	sort.Ints(kept)
	pred := 0.0
	for _, k := range kept {
		pred += real(spec[k]) / float64(n)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// fft computes the radix-2 Cooley-Tukey FFT (inverse when inv is true,
// without the 1/n scale). len(x) must be a power of two.
func fft(x []complex128, inv bool) []complex128 {
	n := len(x)
	if n&(n-1) != 0 {
		panic("forecast: fft length must be a power of two")
	}
	out := append([]complex128(nil), x...)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			out[i], out[j] = out[j], out[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inv {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := out[i+j]
				v := out[i+j+length/2] * w
				out[i+j] = u + v
				out[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return out
}
