package forecast

import (
	"math"
	"sort"
)

// Attention hyperparameters. The model is a retrieval-style single-head
// attention layer: the query is the embedded most recent context window,
// the keys are embedded historical context windows, and the values are the
// (scale-normalized) outcomes that followed each key window. A forecast is
// the softmax-weighted average of historical outcomes whose preceding
// contexts look like the present — attention as soft nearest-neighbour
// regression, which needs no backprop and is exactly reproducible.
const (
	// attnWindow is the context length W embedded into queries and keys.
	attnWindow = 12
	// attnMaxKeys bounds the retrievable past: only the most recent key
	// windows participate, keeping Predict O(attnMaxKeys·W).
	attnMaxKeys = 512
	// attnMaxVal bounds the validation positions scored per temperature
	// during Fit's grid search.
	attnMaxVal = 128
	// attnResidWindow bounds the rolling one-step relative residuals that
	// calibrate PredictUpper.
	attnResidWindow = 256
	// attnUpperQuantile is the residual quantile widening the upper bound.
	attnUpperQuantile = 0.9
	// attnEps guards divisions by near-zero scales.
	attnEps = 1e-9
)

// attnTemps is Fit's softmax temperature grid. Low temperatures sharpen
// attention toward the single closest historical context (good on exact
// repeats, brittle under noise); high temperatures flatten it toward a
// trailing mean. Fit picks the one minimizing one-step sMAPE on held-out
// positions of the training series.
var attnTemps = [...]float64{0.1, 0.25, 0.5, 1, 2, 4}

type transformerForecaster struct {
	series
	cfg    Config
	fitted bool
	temp   float64
	// resid is a bounded ring of one-step relative overshoot residuals
	// (actual vs. forecast), maintained by Update, from which PredictUpper
	// derives its calibration margin.
	resid []float64
}

func newTransformer(cfg Config) *transformerForecaster {
	return &transformerForecaster{cfg: cfg, temp: 1}
}

func (f *transformerForecaster) Name() string { return "transformer" }

// embed normalizes a context window into an attention embedding: values are
// divided by the window's mean magnitude (so windows match on shape, not
// amplitude) and recency-weighted so the tail of the context dominates the
// dot product. The scale is returned for de-normalizing retrieved values;
// it is floored at 1 so sparse series (all-zero windows) cannot produce
// near-zero scales that blow retrieved outcomes up by orders of magnitude.
func embed(w []Observation) (vec [attnWindow]float64, scale float64) {
	sum := 0.0
	for _, o := range w {
		sum += math.Abs(o.Value)
	}
	scale = sum / float64(len(w))
	if scale < 1 {
		scale = 1
	}
	for i, o := range w {
		recency := float64(i+1) / float64(len(w))
		vec[i] = o.Value / scale * recency
	}
	return vec, scale
}

// attend computes the one-step forecast for the context ending at h's tail,
// retrieving over key windows that end strictly before index limit (so Fit
// can hold out validation positions). It reports ok=false when the history
// cannot support a single key window.
func attend(h []Observation, limit int, temp float64) (pred float64, ok bool) {
	// Key windows end at t and pay out h[t+1]; the latest usable t is
	// limit-2. The query is the window ending at len(h)-1.
	if len(h) < attnWindow || limit < attnWindow+1 {
		return 0, false
	}
	q, qscale := embed(h[len(h)-attnWindow:])
	lo := attnWindow - 1
	hi := limit - 2
	if hi-lo+1 > attnMaxKeys {
		lo = hi - attnMaxKeys + 1
	}
	invTemp := 1 / (temp * math.Sqrt(attnWindow))
	scores := make([]float64, 0, hi-lo+1)
	vals := make([]float64, 0, hi-lo+1)
	maxScore := math.Inf(-1)
	for t := lo; t <= hi; t++ {
		k, kscale := embed(h[t-attnWindow+1 : t+1])
		dot := 0.0
		for i := 0; i < attnWindow; i++ {
			dot += q[i] * k[i]
		}
		s := dot * invTemp
		scores = append(scores, s)
		vals = append(vals, h[t+1].Value/kscale)
		if s > maxScore {
			maxScore = s
		}
	}
	// Softmax over scores, shifted by the max for stability, then the
	// weighted outcome average rescaled into the query's amplitude.
	num, den := 0.0, 0.0
	for i, s := range scores {
		w := math.Exp(s - maxScore)
		num += w * vals[i]
		den += w
	}
	pred = num / den * qscale
	if pred < 0 || math.IsNaN(pred) || math.IsInf(pred, 0) {
		pred = 0
	}
	return pred, true
}

// attnMinFit is the shortest trainable series: enough for one key window,
// one outcome, and at least one held-out validation position.
const attnMinFit = 2*attnWindow + 2

func (f *transformerForecaster) Fit(hist []Observation) error {
	if len(hist) < attnMinFit {
		return ErrShortSeries
	}
	f.replace(hist)
	h := f.hist
	// Validation positions: each index v is forecast from keys strictly
	// before it and scored against h[v]. Use the most recent positions,
	// where the series is most like what Predict will face.
	firstVal := attnWindow + 1
	if n := len(h) - attnMaxVal; n > firstVal {
		firstVal = n
	}
	bestTemp, bestErr := f.temp, math.Inf(1)
	for _, temp := range attnTemps {
		sum, n := 0.0, 0
		for v := firstVal; v < len(h); v++ {
			pred, ok := attend(h[:v], v, temp)
			if !ok {
				continue
			}
			actual := h[v].Value
			denom := math.Abs(pred) + math.Abs(actual)
			if denom < attnEps {
				continue // both ~zero: a perfect prediction, sMAPE term 0
			}
			sum += math.Abs(pred-actual) / denom
			n++
		}
		if n == 0 {
			continue
		}
		if e := sum / float64(n); e < bestErr {
			bestErr, bestTemp = e, temp
		}
	}
	f.temp = bestTemp
	f.fitted = true
	return nil
}

func (f *transformerForecaster) Predict(horizon int) []float64 {
	validHorizon(horizon)
	if !f.fitted {
		return persistence(f.hist, horizon)
	}
	out := make([]float64, horizon)
	rollForward(out, nil, f.hist, func(h []Observation) float64 {
		pred, ok := attend(h, len(h), f.temp)
		if !ok {
			return persistence(h, 1)[0]
		}
		return pred
	})
	return out
}

// PredictUpper widens the point forecast by the rolling high quantile of
// observed one-step relative overshoots, so the bound self-calibrates to
// however wrong the model has recently been on this series.
func (f *transformerForecaster) PredictUpper(horizon int) []float64 {
	out := f.Predict(horizon)
	m := f.upperMargin()
	for i := range out {
		out[i] *= 1 + m
	}
	return out
}

func (f *transformerForecaster) upperMargin() float64 {
	if len(f.resid) == 0 {
		return 0
	}
	sorted := append([]float64(nil), f.resid...)
	sort.Float64s(sorted)
	idx := int(attnUpperQuantile * float64(len(sorted)-1))
	return sorted[idx]
}

// Update scores the incoming observation against the model's one-step
// forecast *before* appending it — that residual feeds the upper-bound
// calibration — then appends, which automatically extends the key set.
func (f *transformerForecaster) Update(obs Observation) {
	if f.fitted {
		if pred, ok := attend(f.hist, len(f.hist), f.temp); ok {
			overshoot := (obs.Value - pred) / (math.Abs(pred) + attnEps)
			if overshoot < 0 {
				overshoot = 0
			} else if overshoot > 10 {
				overshoot = 10 // one wild step must not blow the bound open
			}
			f.resid = append(f.resid, overshoot)
			if len(f.resid) > attnResidWindow {
				n := copy(f.resid, f.resid[len(f.resid)-attnResidWindow:])
				f.resid = f.resid[:n]
			}
		}
	}
	f.append(obs)
}

func (f *transformerForecaster) Clone(seed int64) Forecaster {
	cfg := f.cfg
	cfg.Seed = seed
	return newTransformer(cfg)
}
