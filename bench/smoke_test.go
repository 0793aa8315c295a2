package main

import (
	"io"
	"math"
	"testing"
	"time"
)

// TestQuickSmoke runs every workload end to end at about 1/50 of its scale,
// traced, so every wrapper, every output check and the traced-equals-untraced
// comparison execute. It stays under five seconds in total.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads; skipped under -short")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, options{seed: 7, seconds: 1, quick: true, trace: true}, time.Time{}, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.checks {
				t.Errorf("output check failed: %s", c)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("attempted %d, failed %d", res.attempted, res.failed)
			}
			for _, m := range res.endToEnd {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value <= 0 {
					t.Errorf("end-to-end %s = %v: every end-to-end metric must be a positive number on every workload", m.name, m.value)
				}
			}
			if len(res.perLayer) != len(layerDefs) {
				t.Errorf("%d per-layer metrics, want %d", len(res.perLayer), len(layerDefs))
			}
			if len(res.spans) == 0 {
				t.Error("traced run kept no spans")
			}
			measured := 0
			for _, m := range res.perLayer {
				if !m.na {
					measured++
				}
			}
			if measured < 10 {
				t.Errorf("only %d per-layer metrics measured", measured)
			}
		})
	}
}

// The same seed must give the same outputs on the simulated substrate.
func TestSimulatedWorkloadsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads; skipped under -short")
	}
	for _, w := range workloads {
		if !w.sim {
			continue
		}
		var keys [2]string
		for i := range keys {
			st, err := w.setup(options{seed: 11, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			rd, err := st.run(0, nil)
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = rd.key
		}
		if keys[0] != keys[1] || keys[0] == "" {
			t.Errorf("%s: two set-ups with one seed disagree", w.name)
		}
		st, err := w.setup(options{seed: 12, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if rd, err := st.run(0, nil); err != nil || rd.key == keys[0] {
			t.Errorf("%s: another seed gave the same outputs (err=%v): the seed reaches nothing", w.name, err)
		}
	}
}
