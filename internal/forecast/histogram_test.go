package forecast

import (
	"testing"
	"testing/quick"

	"smiless/internal/mathx"
)

func TestHistogramFallbackWhenCold(t *testing.T) {
	h := &IdleHistogram{}
	if h.PrewarmAfter() != 0 {
		t.Error("cold histogram should not schedule unloading")
	}
	if h.KeepAliveFor() != histFallbackKeepAlive {
		t.Error("cold histogram should use the fallback keep-alive")
	}
}

func TestHistogramBracketsIdleTimes(t *testing.T) {
	// Idle times clustered around 60 s: the warm window [prewarm,
	// prewarm+keepalive] must bracket the cluster.
	h := &IdleHistogram{}
	r := mathx.NewRand(1)
	for i := 0; i < 500; i++ {
		h.Observe(mathx.TruncNorm(r, 60, 5, 0))
	}
	pw := h.PrewarmAfter()
	ka := h.KeepAliveFor()
	if pw <= 0 || pw >= 60 {
		t.Errorf("prewarm-after = %v, want in (0, 60)", pw)
	}
	if pw+ka < 75 {
		t.Errorf("warm window ends at %v, should cover the cluster's tail", pw+ka)
	}
	// The window should also not be absurdly wide.
	if pw+ka > 120 {
		t.Errorf("warm window ends at %v, too loose for a tight cluster", pw+ka)
	}
}

func TestHistogramHeadHeavy(t *testing.T) {
	// Sub-second gaps: pre-warm window collapses toward keep-alive.
	h := &IdleHistogram{}
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	if pw := h.PrewarmAfter(); pw > 1 {
		t.Errorf("prewarm-after = %v for sub-second gaps, want ~0", pw)
	}
}

func TestHistogramOOBFallback(t *testing.T) {
	// Mostly out-of-bounds gaps: the policy must fall back.
	h := &IdleHistogram{}
	for i := 0; i < 100; i++ {
		h.Observe(1e6)
	}
	if h.PrewarmAfter() != 0 || h.KeepAliveFor() != histFallbackKeepAlive {
		t.Error("OOB-dominated histogram should fall back")
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	h := &IdleHistogram{}
	h.Observe(-1) // out-of-order timestamps upstream: treat as immediate re-arrival
	h.Observe(0.5)
	if got := h.total; got != 2 {
		t.Errorf("Samples() = %d, want 2 (negative observation clamped, not dropped)", got)
	}
}

// Property: the warm window is always positive and ordered, and the
// quantiles are monotone in q.
func TestHistogramProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := mathx.NewRand(seed)
		h := &IdleHistogram{}
		n := 20 + r.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(r.Float64() * 200)
		}
		if h.total != n {
			return false
		}
		if h.KeepAliveFor() <= 0 || h.PrewarmAfter() < 0 {
			return false
		}
		return h.quantile(0.05) <= h.quantile(0.5) && h.quantile(0.5) <= h.quantile(0.99)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
