package predictor

import (
	"math"
	"math/cmplx"
	"sort"
)

// FIP is IceBreaker's Fourier-based invocation predictor (Roy et al.,
// ASPLOS'22), used as a baseline in Fig. 12: the recent history is
// transformed with an FFT, the top-K dominant harmonics are kept, and the
// truncated spectrum is extrapolated one step into the future.
type FIP struct {
	// Window is the history length transformed (rounded down to a power of
	// two internally).
	Window int
	// TopK is the number of dominant harmonics retained.
	TopK int
}

// NewFIP returns a FIP predictor with IceBreaker-like defaults.
func NewFIP() *FIP { return &FIP{Window: 512, TopK: 8} }

// Name implements CountPredictor.
func (f *FIP) Name() string { return "FIP" }

// Fit implements CountPredictor. FIP is training-free: it refits its
// spectrum on every prediction from the trailing window.
func (f *FIP) Fit([]float64) {}

// Span returns how many trailing entries of an n-long history Predict
// transforms: the largest power of two within both n and Window. Callers
// that build the history just for Predict need to supply only that suffix.
func (f *FIP) Span(n int) int {
	if n == 0 {
		return 0
	}
	span := 1
	for span*2 <= n && span*2 <= f.Window {
		span *= 2
	}
	return span
}

// Predict implements CountPredictor.
func (f *FIP) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	n := f.Span(len(history))
	seg := history[len(history)-n:]
	spec := fft(toComplex(seg), false)

	// Rank harmonics by amplitude, keep DC plus the TopK strongest.
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
	for i := 0; i < f.TopK && i < len(hs); i++ {
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

func toComplex(xs []float64) []complex128 {
	out := make([]complex128, len(xs))
	for i, x := range xs {
		out[i] = complex(x, 0)
	}
	return out
}

// fft computes the radix-2 Cooley-Tukey FFT (inverse when inv is true,
// without the 1/n scale). len(x) must be a power of two.
func fft(x []complex128, inv bool) []complex128 {
	n := len(x)
	if n&(n-1) != 0 {
		panic("predictor: fft length must be a power of two")
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
