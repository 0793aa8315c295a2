// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig all            # every figure, default scale
//	experiments -fig 8 -horizon 7200 -lstm  # full-scale Fig. 8
//	experiments -fig 16             # overhead study only
//
// Each figure prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smiless/internal/cliutil"
	"smiless/internal/experiments"
)

// validFigs lists every figure and sweep name -fig accepts. The opt-in
// sweeps (chaos, churn, forecast, affinity) are not part of 'all'.
var validFigs = []string{
	"all", "2", "3", "8", "9", "10", "11", "12", "13", "14", "15", "16",
	"chaos", "churn", "forecast", "affinity",
}

// parseFigs splits and validates a -fig list. Unknown names fail with an
// error that lists every valid figure, so typos exit non-zero instead of
// silently printing nothing.
func parseFigs(s string) (map[string]bool, error) {
	valid := map[string]bool{}
	for _, v := range validFigs {
		valid[v] = true
	}
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !valid[f] {
			return nil, fmt.Errorf("unknown figure %q; valid figures: %s", f, strings.Join(validFigs, ", "))
		}
		want[f] = true
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no figure selected; valid figures: %s", strings.Join(validFigs, ", "))
	}
	return want, nil
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2,3,8,9,10,11,12,13,14,15,16, 'chaos' (resilience sweep), 'churn' (node-churn sweep), 'forecast' (predictor-quality sweep) or 'affinity' (heterogeneous-placement sweep; none of these four in 'all'), or 'all'")
	horizon := flag.Float64("horizon", 0, "trace horizon in seconds (0 = per-figure default)")
	seed := flag.Int64("seed", 1, "random seed")
	sla := flag.Float64("sla", 2.0, "SLA in seconds")
	forecaster := cliutil.AddForecasterFlag(flag.CommandLine)
	seeds := flag.Int("seeds", 1, "for -fig 8: run this many trace seeds and print medians")
	forecasters := flag.String("forecasters", "", "for -fig forecast: comma-separated forecaster families (empty = all registered)")
	short := flag.Bool("short", false, "for -fig forecast/affinity: short mode (900 s horizon) for CI")
	spot := flag.Bool("spot", false, "for -fig affinity: bill against a seeded spot-price step trace")
	flag.Parse()

	want, err := parseFigs(*fig)
	if err == nil {
		err = cliutil.ValidateForecaster(*forecaster)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	all := want["all"]
	show := func(name string) bool { return all || want[name] }

	if show("2") {
		fmt.Println(experiments.Fig2().Table())
	}
	if show("3") {
		fmt.Println(experiments.Fig3().Table())
	}
	var fig8 *experiments.Fig8Result
	if show("8") || show("9") {
		p := experiments.DefaultFig8Params(*seed)
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *horizon > 0 {
			p.Horizon = *horizon
		}
		if *seeds > 1 {
			multi := experiments.Fig8Multi(p, *seeds)
			fmt.Println(multi.Table())
			fig8 = multi.Runs[0]
		} else {
			fig8 = experiments.Fig8(p)
		}
	}
	if show("8") && *seeds <= 1 {
		fmt.Println(fig8.Table())
	}
	if show("9") {
		fmt.Println(fig8.Fig9Table())
	}
	if show("10") {
		p := experiments.Fig10Params{Horizon: *horizon, Seed: *seed, Forecaster: *forecaster}
		fmt.Println(experiments.Fig10(p).Table())
	}
	if show("11") {
		fmt.Println(experiments.Fig11(experiments.Fig11Params{Horizon: *horizon, Seed: *seed}).Table())
	}
	if show("12") {
		fmt.Println(experiments.Fig12(experiments.Fig12Params{Seed: *seed}).Table())
	}
	if show("13") {
		p := experiments.Fig13Params{Horizon: *horizon, SLA: *sla, Seed: *seed, Forecaster: *forecaster}
		fmt.Println(experiments.Fig13(p).Table())
	}
	if show("14") {
		fmt.Println(experiments.Fig14(experiments.Fig14Params{SLA: *sla, Seed: *seed, Forecaster: *forecaster}).Table())
	}
	if show("15") {
		fmt.Println(experiments.Fig15(experiments.Fig15Params{SLA: *sla, Seed: *seed, Forecaster: *forecaster}).Table())
	}
	if show("16") {
		fmt.Println(experiments.Fig16(experiments.Fig16Params{}).Table())
	}
	// The chaos sweep is opt-in: it is not part of the paper's figures.
	if want["chaos"] {
		p := experiments.DefaultChaosParams(*seed)
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *horizon > 0 {
			p.Horizon = *horizon
		}
		fmt.Println(experiments.Chaos(p).Table())
	}
	// The churn sweep (SLA attainment vs. node count under crash/partition
	// churn) is likewise opt-in.
	if want["churn"] {
		p := experiments.DefaultChurnParams(*seed)
		p.SLA = *sla
		p.Forecaster = *forecaster
		if *horizon > 0 {
			p.Horizon = *horizon
		}
		fmt.Println(experiments.Churn(p).Table())
	}
	// The predictor-quality sweep is opt-in: the forecaster comparison is an
	// extension beyond the paper's figures.
	if want["forecast"] {
		p := experiments.PredictorSweepParams{Seed: *seed, Horizon: *horizon}
		if *short {
			p.Horizon = 900
		}
		if *forecasters != "" {
			for _, f := range strings.Split(*forecasters, ",") {
				p.Forecasters = append(p.Forecasters, strings.TrimSpace(f))
			}
		}
		res, err := experiments.PredictorSweep(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(res.Table())
	}
	// The affinity sweep (placement policy vs. SLA/cost under co-location
	// interference and optional spot pricing) is opt-in. It doubles as the
	// CI gate: the process exits non-zero when the affinity-aware policies
	// fail to dominate the blind baseline.
	if want["affinity"] {
		p := experiments.DefaultAffinityParams(*seed)
		p.SLA = *sla
		p.Forecaster = *forecaster
		p.Spot = *spot
		if *horizon > 0 {
			p.Horizon = *horizon
		}
		if *short {
			p.Horizon = 900
		}
		res := experiments.Affinity(p)
		fmt.Println(res.Table())
		if !res.Dominates() {
			fmt.Fprintln(os.Stderr, "experiments: affinity-aware placement did not dominate the blind baseline")
			os.Exit(1)
		}
	}
}
