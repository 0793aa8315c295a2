package forecast

import (
	"fmt"
	"testing"
)

// TestTrainEpochsSchedule pins the one training schedule: a from-scratch fit
// visits every example in order, a warm refit the fresh examples preceded by
// an equally sized, evenly spaced, ascending sample of the older ones.
func TestTrainEpochsSchedule(t *testing.T) {
	visit := func(epochs, first, n, fresh int) []int {
		var got []int
		trainEpochs(epochs, first, n, fresh, func(i int) { got = append(got, i) })
		return got
	}
	same := func(what string, got, want []int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: visited %v, want %v", what, got, want)
		}
	}
	same("from scratch", visit(2, 3, 7, 7), []int{3, 4, 5, 6, 3, 4, 5, 6})
	same("warm", visit(1, 4, 104, 4), []int{16, 40, 64, 88, 100, 101, 102, 103})
	same("fewer older examples than fresh ones", visit(1, 2, 10, 6), []int{2, 3, 4, 5, 6, 7, 8, 9})
	same("nothing fresh", visit(3, 2, 10, 0), nil)
	same("series no longer than the input window", visit(3, 8, 8, 4), nil)

	got := visit(1, 24, 3000, 32)
	if len(got) != 64 {
		t.Fatalf("warm epoch over 3000 observations took %d steps, want 64", len(got))
	}
	for j := 1; j < len(got); j++ {
		if got[j] <= got[j-1] {
			t.Fatalf("schedule not ascending at %d: %v", j, got)
		}
	}
	if got[31] >= 3000-32 || got[32] != 3000-32 {
		t.Errorf("replay and fresh examples overlap: %v", got[28:36])
	}
}

// TestRefitIsDeterministic: the same Fit/Refit call sequence on two
// instances of one seed leaves every weight and forecast equal to the bit.
// (refSeries reaches its largest bucket within ten windows, so extending it
// never takes the count head's from-scratch path.)
func TestRefitIsDeterministic(t *testing.T) {
	counts, iats := refSeries(140)
	inv := func() *countLSTM {
		p := newCount(2, 4)
		p.seqLen, p.hidden, p.epochs = 6, 5, 2
		p.fit(counts[:100])
		p.refit(counts[:120], 20)
		p.refit(counts, 20)
		return p
	}
	a, b := inv(), inv()
	sameBits(t, "lstm.W", a.lstm.W, b.lstm.W)
	sameBits(t, "lstm.B", a.lstm.B, b.lstm.B)
	sameBits(t, "head.W", a.head.W, b.head.W)
	sameBits(t, "head.B", a.head.B, b.head.B)
	sameBits(t, "Predict", []float64{a.forecast(counts)}, []float64{b.forecast(counts)})
	if want := 2 * (94 + 40 + 40); a.opt.t != want {
		t.Errorf("optimizer took %d steps over fit and two warm refits, want %d: the refits did not continue it", a.opt.t, want)
	}

	iat := func() *iatLSTM {
		p := newIATLSTM(Config{Seed: 4}, true)
		p.seqLen, p.hidden, p.epochs = 5, 4, 2
		p.fit(iats[:100], counts[:100])
		p.refit(iats[:120], counts[:120], 20)
		p.refit(iats, counts, 20)
		return p
	}
	c, d := iat(), iat()
	sameBits(t, "lstmIAT.W", c.lstmIAT.W, d.lstmIAT.W)
	sameBits(t, "lstmCount.W", c.lstmCount.W, d.lstmCount.W)
	sameBits(t, "merge.W", c.merge.W, d.merge.W)
	sameBits(t, "head.W", c.head.W, d.head.W)
	sameBits(t, "PredictIAT", []float64{c.forecast(iats, counts)}, []float64{d.forecast(iats, counts)})
}

// TestRefitCostTracksNewData is the point of the warm refit: after k new
// observations it takes the same number of optimizer steps whatever the
// length of the history behind them.
func TestRefitCostTracksNewData(t *testing.T) {
	const k = 32
	for _, n := range []int{500, 3000} {
		counts, iats := refSeries(n + k)

		inv := newCount(2, 1)
		inv.seqLen, inv.hidden, inv.epochs = 6, 4, 2
		inv.fit(counts[:n])
		before := inv.opt.t
		inv.refit(counts, k)
		if got, want := inv.opt.t-before, inv.epochs*2*k; got != want {
			t.Errorf("count refit after %d new windows on %d: %d optimizer steps, want %d", k, n, got, want)
		}

		iat := newIATLSTM(Config{Seed: 1}, true)
		iat.seqLen, iat.hidden, iat.epochs = 5, 4, 3
		iat.fit(iats[:n], counts[:n])
		before = iat.opt.t
		iat.refit(iats, counts, k)
		if got, want := iat.opt.t-before, iat.epochs*2*k; got != want {
			t.Errorf("inter-arrival refit after %d new gaps on %d: %d optimizer steps, want %d", k, n, got, want)
		}
	}
}

// TestFirstRefitIsTheReferenceFit: on an unfitted predictor Refit is the
// from-scratch fit, bit for bit the reference kernel's.
func TestFirstRefitIsTheReferenceFit(t *testing.T) {
	counts, iats := refSeries(60)
	p := newCount(2, 9)
	p.seqLen, p.hidden, p.epochs = 6, 5, 2
	p.refit(counts, 3)
	ref := &refInvocation{cfg: p}
	ref.fit(counts)
	sameBits(t, "lstm.W", p.lstm.W, ref.lstm.W)
	sameBits(t, "head.W", p.head.W, ref.head.W)
	sameBits(t, "head.B", p.head.B, ref.head.B)

	q := newIATLSTM(Config{Seed: 5}, true)
	q.seqLen, q.hidden, q.epochs = 5, 4, 2
	q.refit(iats, counts, 3)
	refQ := &refIAT{cfg: q}
	refQ.fit(iats, counts)
	sameBits(t, "lstmIAT.W", q.lstmIAT.W, refQ.lstmIAT.W)
	sameBits(t, "lstmCount.W", q.lstmCount.W, refQ.lstmCount.W)
	sameBits(t, "merge.W", q.merge.W, refQ.merge.W)
	sameBits(t, "head.W", q.head.W, refQ.head.W)
}
