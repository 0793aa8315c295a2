package forecast

import "math"

// IdleHistogram implements the hybrid histogram policy of "Serverless in
// the Wild" (Shahrad et al., ATC'20) — the production keep-alive policy the
// Azure trace study proposes, and the natural non-LSTM alternative to
// SMIless' predictors. Idle times (gaps between invocations) are tracked in
// fixed-width bins; the policy pre-warms a function PrewarmAfter() seconds
// after it goes idle and keeps it alive for KeepAliveFor() more seconds, so
// the warm window brackets where the next invocation historically lands:
//
//	prewarm  = lowQuantile(idle times) × (1 − margin)
//	keepalive = highQuantile(idle times) × (1 + margin) − prewarm
//
// When the distribution carries no signal (too few samples, or too many
// out-of-bounds gaps), the policy falls back to a conservative plain
// keep-alive, as the paper's hybrid scheme does. It is a keep-alive policy,
// not a forecast; the histogram family embeds it.
type IdleHistogram struct {
	counts []int // per-bin idle times, allocated on first Observe
	total  int
	oob    int
}

// The ATC'20 defaults at one-second resolution over a four-minute range.
const (
	histBinWidth = 1.0 // seconds per bin
	histBins     = 240 // gaps beyond histBinWidth×histBins are out of bounds
	// histLowQuantile/histHighQuantile bracket the warm window (ATC'20 uses
	// the 5th and 99th percentiles); histMargin widens it on both sides.
	histLowQuantile  = 0.05
	histHighQuantile = 0.99
	histMargin       = 0.10
	// histMinSamples gates the policy: below it the fallback applies.
	histMinSamples = 10
	// histFallbackKeepAlive is the plain keep-alive used without signal.
	histFallbackKeepAlive = 30.0
)

// Observe records one idle duration. A negative duration (possible when
// the caller derives idle times from out-of-order timestamps) is clamped
// to zero rather than rejected: it still evidences an immediate re-arrival.
func (h *IdleHistogram) Observe(idle float64) {
	if idle < 0 {
		idle = 0
	}
	if h.counts == nil {
		h.counts = make([]int, histBins)
	}
	bin := int(idle / histBinWidth)
	h.total++
	if bin >= histBins {
		h.oob++
		return
	}
	h.counts[bin]++
}

// Samples returns the number of observed idle times.
func (h *IdleHistogram) Samples() int { return h.total }

// usable reports whether the histogram carries enough in-bounds signal for
// quantile to be meaningful; below the gate the policy applies the plain
// keep-alive fallback.
func (h *IdleHistogram) usable() bool {
	if h.total < histMinSamples {
		return false
	}
	// ATC'20 switches to the fallback when too much mass is out of bounds.
	return float64(h.oob) < 0.5*float64(h.total)
}

// quantile returns the approximate q-quantile of in-bounds idle times (bin
// upper edge), or the fallback keep-alive when nothing in-bounds has been
// observed.
func (h *IdleHistogram) quantile(q float64) float64 {
	inBounds := h.total - h.oob
	if inBounds == 0 {
		return histFallbackKeepAlive
	}
	target := int(math.Ceil(q * float64(inBounds)))
	if target < 1 {
		target = 1
	}
	cum := 0
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return float64(i+1) * histBinWidth
		}
	}
	return float64(histBins) * histBinWidth
}

// PrewarmAfter returns how long after going idle the function should stay
// unloaded before pre-warming; zero means "keep alive immediately" (the
// fallback, or a head-heavy idle distribution).
func (h *IdleHistogram) PrewarmAfter() float64 {
	if !h.usable() {
		return 0
	}
	v := h.quantile(histLowQuantile) * (1 - histMargin)
	if v < 0 {
		return 0
	}
	return v
}

// KeepAliveFor returns how long the (pre-warmed or still-warm) instance
// should then remain alive.
func (h *IdleHistogram) KeepAliveFor() float64 {
	if !h.usable() {
		return histFallbackKeepAlive
	}
	hi := h.quantile(histHighQuantile) * (1 + histMargin)
	v := hi - h.PrewarmAfter()
	if v < histBinWidth {
		v = histBinWidth
	}
	return v
}

// histogramForecaster is the ATC'20 idle-time distribution as a forecaster:
// observations stream into the histogram and forecasts are its quantiles —
// the median as the point forecast, the policy's high quantile (with its
// margin) as the upper bound. Without enough in-bounds signal it falls back
// to persistence, as the policy itself falls back to plain keep-alive.
type histogramForecaster struct {
	series
	IdleHistogram
	cfg Config
}

func (f *histogramForecaster) Name() string { return "histogram" }

func (f *histogramForecaster) Fit(hist []Observation) error {
	if len(hist) < 2 {
		return ErrShortSeries
	}
	f.replace(hist)
	f.IdleHistogram = IdleHistogram{}
	for _, o := range f.hist {
		f.Observe(o.Value)
	}
	return nil
}

func (f *histogramForecaster) Predict(horizon int) []float64 {
	return f.constant(horizon, 0.5, 1)
}

// PredictUpper implements UpperBounder: the policy's high quantile widened
// by its margin, the upper edge of the ATC'20 warm window.
func (f *histogramForecaster) PredictUpper(horizon int) []float64 {
	return f.constant(horizon, histHighQuantile, 1+histMargin)
}

// constant repeats the q-quantile times scale over the horizon, or
// persistence when the histogram is not usable.
func (f *histogramForecaster) constant(horizon int, q, scale float64) []float64 {
	validHorizon(horizon)
	if !f.usable() {
		return persistence(f.hist, horizon)
	}
	out := make([]float64, horizon)
	v := f.quantile(q) * scale
	for i := range out {
		out[i] = v
	}
	return out
}

// Update appends and streams the observation into the live histogram, so
// the distribution sharpens online without refits.
func (f *histogramForecaster) Update(obs Observation) {
	f.append(obs)
	f.Observe(obs.Value)
}

func (f *histogramForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return &histogramForecaster{cfg: cfg}
}
