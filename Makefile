GO ?= go

.PHONY: all build vet test race check bench bench-quick microbench trace-smoke snapshot-smoke obs-smoke drift-smoke xray-smoke

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled run of the concurrency-sensitive packages (suite engine
# worker pool, the experiment runner built on it, the telemetry stack
# that observes both, and the bfstat console's live-stack test).
race:
	$(GO) test -race ./internal/sim/... ./internal/experiments/... ./internal/obs/... ./internal/telemetry/... ./cmd/bfstat/...

check: build vet race

# End-to-end throughput benchmark: a fixed predictor x trace matrix run
# by cmd/bench, written to the next free BENCH_<n>.json. Commit the JSON
# alongside optimisation PRs so before/after numbers live in the tree.
# `make bench-quick` is the CI smoke variant: 1/5 the branches, one run,
# compared against the committed BENCH_1.json baseline. The comparison
# divides out machine speed using the untouched control predictors
# (bimodal/gshare), so the tolerance only has to absorb per-cell noise
# and can sit tight enough to catch a real hot-path regression.
bench:
	$(GO) run ./cmd/bench

bench-quick:
	$(GO) run ./cmd/bench -quick -out bench_ci.json -baseline BENCH_1.json -tolerance 1.4

# Traced end-to-end smoke: run a small 2-trace suite twice with
# -trace-out/-journal enabled, summarize the journal, and diff the two
# runs — identical seeds must diff clean (exit 1 otherwise). Leaves
# trace_ci.json + journal_ci.jsonl behind for CI artifact upload and
# for loading into Perfetto by hand.
trace-smoke:
	$(GO) run ./cmd/bfsim -p bimodal,gshare -t INT1,MM1 -n 100000 \
		-trace-out trace_ci.json -journal journal_ci.jsonl > /dev/null
	$(GO) run ./cmd/bfsim -p bimodal,gshare -t INT1,MM1 -n 100000 \
		-journal journal_ci_b.jsonl > /dev/null
	$(GO) run ./cmd/journal summary journal_ci.jsonl
	$(GO) run ./cmd/journal diff journal_ci.jsonl journal_ci_b.jsonl

# Snapshot round-trip + bit-exact-resume smoke through cmd/bfsim: for
# each headline predictor, a straight run must equal a split run — half
# the trace with -checkpoint, then -resume with -skip to the checkpoint
# branch. Branches and mispredicts are summed across the legs and
# compared exactly (equal counters imply equal MPKI), so any snapshot
# drift fails the target.
snapshot-smoke:
	@set -e; for p in bimodal gshare isl-tage-15 bf-neural bf-tage-10; do \
		s=$$($(GO) run ./cmd/bfsim -p $$p -t INT1 -n 60000 -warmup 0 -csv | tail -1); \
		a=$$($(GO) run ./cmd/bfsim -p $$p -t INT1 -n 30000 -warmup 0 -csv -checkpoint snap_ci.bin 2>/dev/null | tail -1); \
		skip=$$(echo $$a | cut -d, -f3); \
		b=$$($(GO) run ./cmd/bfsim -p $$p -t INT1 -n 60000 -warmup 0 -csv -resume snap_ci.bin -skip $$skip | tail -1); \
		sb=$$(echo $$s | cut -d, -f3); sm=$$(echo $$s | cut -d, -f5); \
		ab=$$(echo $$a | cut -d, -f3); am=$$(echo $$a | cut -d, -f5); \
		bb=$$(echo $$b | cut -d, -f3); bm=$$(echo $$b | cut -d, -f5); \
		if [ $$((ab+bb)) -ne $$sb ] || [ $$((am+bm)) -ne $$sm ]; then \
			echo "snapshot-smoke: $$p drift: straight $$sb br/$$sm misp, split $$((ab+bb))/$$((am+bm))"; exit 1; \
		fi; \
		echo "snapshot-smoke: $$p ok ($$sb branches, $$sm mispredicts)"; \
	done; rm -f snap_ci.bin

# Live-health smoke: a real bfsim suite with -metrics-addr on, driven
# end to end from cmd/bfstat while it runs. /healthz must answer with a
# health state, /metrics/history must serve the bfbp.history.v1 ring,
# and one rendered frame must carry non-empty engine-run and harness
# predict/update summary quantiles. The run is killed once the surface
# is verified — this guards the wiring, not the numbers.
OBS_ADDR ?= 127.0.0.1:9377

obs-smoke:
	@set -e; \
	$(GO) build -o bfsim_obs_ci ./cmd/bfsim; \
	$(GO) build -o bfstat_obs_ci ./cmd/bfstat; \
	./bfsim_obs_ci -p bimodal,gshare,bf-neural -t all -n 500000 \
		-metrics-addr $(OBS_ADDR) > /dev/null 2>&1 & pid=$$!; \
	ok=0; \
	{ \
		./bfstat_obs_ci -addr $(OBS_ADDR) -wait 30s -get /healthz | grep -q '"state"' && \
		./bfstat_obs_ci -addr $(OBS_ADDR) -get /metrics/history | grep -q bfbp.history.v1 && \
		sleep 2 && \
		./bfstat_obs_ci -addr $(OBS_ADDR) -once \
			-require-quantiles bfbp_engine_run_seconds,bfbp_harness_predict_seconds,bfbp_harness_update_seconds; \
	} && ok=1; \
	kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	rm -f bfsim_obs_ci bfstat_obs_ci; \
	[ $$ok -eq 1 ] && echo "obs-smoke: ok"

# Drift/flight smoke: a short endurance run with the change-point layer
# on. The phase boundaries between spliced trace segments must fire at
# least one drift alarm (journal `drift` events), the Perfetto timeline
# must carry counter tracks ("ph":"C" events), and the flight dump must
# round-trip through `journal flight`. Leaves drift_ci.* behind for
# artifact upload.
drift-smoke:
	@set -e; \
	$(GO) run ./cmd/bfsim -p bf-tage-10 -t SERV1,FP1,MM1 -n 200000 -endurance 2 \
		-drift -journal drift_ci.jsonl -trace-out drift_ci.trace.json \
		-flight-dump drift_ci.flight.json > /dev/null; \
	grep -q '"ph":"C"' drift_ci.trace.json || { echo "drift-smoke: no counter tracks in timeline"; exit 1; }; \
	drifts=$$($(GO) run ./cmd/journal summary -json drift_ci.jsonl | grep -c '"metric"' || true); \
	[ $$drifts -ge 1 ] || { echo "drift-smoke: no drift alarms in journal"; exit 1; }; \
	$(GO) run ./cmd/journal flight drift_ci.flight.json > /dev/null; \
	echo "drift-smoke: ok ($$drifts drift alarms)"

# Predictor-internals X-ray smoke: a short run with -probe-state must
# emit tablestats journal events that `journal summary` reduces to
# table-state rows, and a live probing run must publish
# bfbp_table_occupancy series that `bfstat -once -json` surfaces.
# Leaves xray_ci.jsonl behind for artifact upload.
xray-smoke:
	@set -e; \
	$(GO) run ./cmd/bfsim -p bf-tage-8,bimodal -t SERV1 -n 150000 \
		-probe-state -probe-state-every 32768 -journal xray_ci.jsonl > /dev/null; \
	n=$$(grep -c '"event":"tablestats"' xray_ci.jsonl); \
	[ $$n -ge 1 ] || { echo "xray-smoke: no tablestats events in journal"; exit 1; }; \
	$(GO) run ./cmd/journal summary xray_ci.jsonl | grep -q 'table-state samples:' || \
		{ echo "xray-smoke: summary missing table-state rows"; exit 1; }; \
	$(GO) build -o bfsim_xray_ci ./cmd/bfsim; \
	$(GO) build -o bfstat_xray_ci ./cmd/bfstat; \
	./bfsim_xray_ci -p bf-tage-8,bf-neural -t all -n 400000 -probe-state \
		-metrics-addr $(OBS_ADDR) > /dev/null 2>&1 & pid=$$!; \
	ok=0; \
	{ \
		./bfstat_xray_ci -addr $(OBS_ADDR) -wait 30s -get /healthz > /dev/null && \
		for i in $$(seq 1 100); do \
			./bfstat_xray_ci -addr $(OBS_ADDR) -get /metrics | grep -q bfbp_table_occupancy && break; \
			sleep 0.3; \
		done && \
		./bfstat_xray_ci -addr $(OBS_ADDR) -once -json | grep -q '"occupancy"'; \
	} && ok=1; \
	kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	rm -f bfsim_xray_ci bfstat_xray_ci; \
	[ $$ok -eq 1 ] && echo "xray-smoke: ok ($$n tablestats events)"

# Go microbenchmarks: root package, engine/telemetry overhead, and the
# hot-path kernels (the lookup-time BF-GHR fold and fold sets,
# recency-stack CAM, fused dot-product, the three flagship cores' probe
# paths, the OH-SNAP baseline's scalar and fused steps, and isl-tage-15
# beside bf-tage-10 on the shared TAGE kernel, whose per-branch ratio is
# the flagship cost target).
BENCHTIME ?= 1s

microbench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) . ./internal/sim \
		./internal/history ./internal/rs ./internal/dotp \
		./internal/core/bftage ./internal/core/bfneural ./internal/core/bfgehl \
		./internal/predictor/ohsnap ./internal/predictor/tage
