// Voice Assistant (WL3) under bursts: drive the deepest paper DAG through a
// fluctuating workload and watch the Auto-scaler react — pods tracking
// arrivals, adaptive batching, and the CPU-heavy scale-out the paper shows
// in Fig. 14.
//
//	go run ./examples/voiceassistant
package main

import (
	"fmt"
	"math/rand"

	"smiless"
)

func main() {
	app := smiless.VoiceAssistant()
	fmt.Printf("%s: SR -> {DB, NER, TM} -> QA -> TG -> TTS (%d functions)\n\n", app.Name, app.Graph.Len())

	// Quiet lead-in followed by a sharp two-peak burst.
	r := rand.New(rand.NewSource(3))
	lead := smiless.PoissonTrace(r, 0.5, 120)
	var burst smiless.Trace
	burst.Horizon = 200
	for sec, rate := range []int{1, 2, 3, 4, 6, 8, 10, 12, 12, 10, 8, 6, 4, 6, 8, 10, 8, 5, 2, 1} {
		base := 120 + float64(sec)
		for j := 0; j < rate; j++ {
			burst.Arrivals = append(burst.Arrivals, base+r.Float64())
		}
	}
	tr := mergeTraces(lead, &burst)

	const sla = 3.0
	profiles, err := smiless.ProfileApplication(app, 3)
	if err != nil {
		panic(err)
	}
	// No WithForecaster: the 2-minute lead-in is too short to train one, so
	// the moving-window estimator serves.
	drv := smiless.NewSMIless(smiless.DefaultCatalog(), profiles, sla, smiless.WithSeed(3))
	sim, err := smiless.NewSimulator(app, drv, sla, smiless.WithSeed(3))
	if err != nil {
		panic(err)
	}
	st, err := sim.Run(tr)
	if err != nil {
		panic(err)
	}

	fmt.Printf("requests=%d completed=%d cost=$%.4f violations=%.1f%% mean batch=%.2f\n\n",
		tr.Len(), st.Completed, st.TotalCost, st.ViolationRate()*100, st.MeanBatch())

	fmt.Printf("%-6s %-9s %-9s %-9s\n", "t (s)", "arrivals", "CPU pods", "GPU pods")
	for _, s := range st.PodSamples {
		if s.Time < 115 || s.Time > 145 {
			continue
		}
		fmt.Printf("%-6.0f %-9d %-9d %-9d\n", s.Time, s.Arrivals, s.CPU, s.GPU)
	}
}

// mergeTraces combines traces (tiny helper to keep the example focused).
func mergeTraces(a, b *smiless.Trace) *smiless.Trace {
	out := &smiless.Trace{Horizon: a.Horizon}
	if b.Horizon > out.Horizon {
		out.Horizon = b.Horizon
	}
	out.Arrivals = append(out.Arrivals, a.Arrivals...)
	out.Arrivals = append(out.Arrivals, b.Arrivals...)
	for i := 1; i < len(out.Arrivals); i++ {
		for j := i; j > 0 && out.Arrivals[j] < out.Arrivals[j-1]; j-- {
			out.Arrivals[j], out.Arrivals[j-1] = out.Arrivals[j-1], out.Arrivals[j]
		}
	}
	return out
}
