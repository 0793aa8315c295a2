GO ?= go

.PHONY: all build test race lint fmt bench bench-opt bench-serve bench-forecast forecast-sweep affinity-sweep serve-smoke chaos-smoke invariants loc

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Boot the live gateway on a random port, fire a seeded loadgen run at it,
# and assert zero 5xx plus a well-formed /metrics scrape.
serve-smoke:
	sh scripts/serve_smoke.sh

# Boot the gateway with a 3-node control plane under -race, kill and restart
# a node mid-load through /chaos, and fail on any lost or duplicated request.
chaos-smoke:
	sh scripts/chaos_smoke.sh

# Runtime invariant mode: rebuilds the serving/simulator suites with
# -tags smiless_invariants, turning on in-code assertions (event-queue
# ordering, end-of-run conservation of requests and cost, admission-slot
# accounting, done-map idempotency, node health transitions, drivers writing
# through a history view, no reference left to a slot's reused object) and the
# goroutine-leak checker adopted by TestMain (serving, and loadgen's
# pacer/worker engine). The controller and baseline suites ride along so
# every shipped driver runs under the history guard.
invariants:
	$(GO) test -tags smiless_invariants ./internal/serving/... ./internal/simulator/... ./internal/eventq/... ./internal/clock/... ./internal/controller/... ./internal/baselines/... ./cmd/loadgen/...

# Mirrors CI's lint and hygiene jobs: vet, the repo's own analyzer suite,
# and gofmt.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/smilint ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

fmt:
	gofmt -w .

# Non-test Go lines per package directory; fails when internal/simulator +
# internal/serving exceed 4,235 lines (ROADMAP item 6) or internal/lint +
# internal/lint/linttest exceed 1,300.
loc:
	@find . -name '*.go' ! -name '*_test.go' | sort | xargs wc -l | awk ' \
	function limit(name, s, max) { printf "%7d %s (limit %d)\n", s, name, max; if (s > max) { print "loc: " name " over " max " lines" > "/dev/stderr"; bad = 1 } } \
	$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if (!(d in n)) o[++k] = d; n[d] += $$1 } \
	END { for (i = 1; i <= k; i++) printf "%7d %s\n", n[o[i]], o[i]; \
		limit("internal/simulator + internal/serving", n["./internal/simulator"] + n["./internal/serving"], 4235); \
		limit("internal/lint + internal/lint/linttest", n["./internal/lint"] + n["./internal/lint/linttest"], 1300); \
		exit bad }'

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Optimizer search benches (sequential vs cached) as JSON, with
# derived speedup ratios. No -short: skipIfShort would skip every bench.
bench-opt:
	$(GO) test -bench 'BenchmarkOptimizer/' -benchtime 20x -run '^$$' . \
		| $(GO) run ./cmd/benchjson -o BENCH_optimizer.json
	@echo "wrote BENCH_optimizer.json"

# Serve/harness perf gate: run the BenchmarkServe suite (pacer null-sink
# ceiling, in-process gateway end to end, runtime invoke hot path), emit
# BENCH_serve.json, and fail on regression beyond the noise band against
# the committed baseline. NOISE/BENCHTIME/OUT env knobs tune it.
bench-serve:
	sh scripts/bench_serve.sh

# Forecasting perf gate: per-family refit/predict/harness-step cost as
# BENCH_forecast.json, failing on regression beyond the noise band against
# the committed baseline. NOISE/BENCHTIME/OUT env knobs tune it.
bench-forecast:
	sh scripts/bench_forecast.sh

# Short-horizon predictor-quality sweep (CI sanity check on the forecaster
# registry): every family, walk-forward scored on the three trace regimes.
forecast-sweep:
	$(GO) run ./cmd/experiments -fig forecast -short

# Short-horizon heterogeneous-placement sweep (CI gate): blind vs.
# affinity-aware policies under co-location interference on bursty and
# diurnal traces. The command exits non-zero unless the affinity-aware
# frontier weakly dominates the blind baseline on (SLA, cost).
affinity-sweep:
	$(GO) run ./cmd/experiments -fig affinity -short
