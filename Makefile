GO ?= go

# Per-target budget for fuzz-smoke (Go -fuzztime syntax).
FUZZTIME ?= 10s

# Statement-coverage floors for cover-check (percent). The replication
# core and the observability layer are where silent regressions hide.
COVER_FLOOR_CORE ?= 85
COVER_FLOOR_OBS  ?= 85

.PHONY: build test vet race determinism loc verify cover-check fuzz-smoke bench-build bench-pair bench-seal bench bench-commit bench-commit-smoke bench-data bench-data-smoke bench-recovery bench-recovery-smoke bench-fleet bench-fleet-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the concurrency-heavy packages: the observability registry,
# the replication core (commit pipeline, checkpointer, follower, fleet),
# the simulated cloud (virtual-clock latency/outage state), the
# deterministic simulation driver, the virtual clock and its hand-off
# helpers, and the sealer (segment-parallel deflate under one
# process-wide helper budget).
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/cloud/... ./internal/sim/... ./internal/simclock/... ./internal/sealer/...

# determinism runs every virtual-time test — the clock's own (where time
# moves: on the release that leaves no work token outstanding), core's, the
# sim seed set, the paper tables rendered twice
# (TestPaperTablesAreDeterministic) and the four bench smokes
# (cmd/ginja-bench) — at three core counts, with the simclock token oracle
# on (simtest.Main in their TestMain; the clock's oracle tests switch it on
# themselves): a schedule is a function of its seed, never of how many Ps
# run it.
DETERMINISM_PKGS = ./internal/simclock/... ./internal/core/... ./internal/sim/... ./internal/experiments/... ./cmd/ginja-bench
determinism:
	for p in 1 2 8; do GOMAXPROCS=$$p $(GO) test -count=1 $(DETERMINISM_PKGS) || exit 1; done

# loc prints the size figures the simplicity issues gate on: non-test Go
# lines in internal/core, in the sealer (envelope plus its deflate
# encoder), in the virtual clock (internal/simclock and its test harness),
# in the repo outside benchmark/, and in the virtual-time and paper-figure
# measurement code (ROADMAP item 6).
loc:
	@printf 'internal/core        %s\n' "$$(find internal/core -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/sealer      %s\n' "$$(find internal/sealer -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'internal/simclock    %s\n' "$$(find internal/simclock -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'repo less benchmark/ %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs cat | wc -l)"
	@printf 'measurement          %s\n' "$$(find internal/sim internal/experiments cmd/ginja-bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"

# fuzz-smoke gives each wire-format fuzz target a short budget on top of
# the checked-in corpus (internal/{core,sealer}/testdata/fuzz/). Reproduce
# a finding with: go test ./internal/core -run 'FuzzX/<entry>'. The deflate
# round-trip target encodes and inflates every input, of up to ~70 KB, so
# its minimisation of a new input is capped to keep the budget.
fuzz-smoke:
	$(GO) test ./internal/sealer -run '^$$' -fuzz '^FuzzDeflateRoundTrip$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzParseWALObjectName$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzParseDBObjectName$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzDecodeWrites$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzListDiff$$' -fuzztime $(FUZZTIME)

# cover-check enforces per-package statement-coverage floors on the two
# packages where a silent test regression hurts most, and leaves a
# machine-readable summary in coverage_summary.txt (uploaded by CI).
cover-check:
	$(GO) test -count=1 -coverprofile=coverage_core.out ./internal/core
	$(GO) test -count=1 -coverprofile=coverage_obs.out ./internal/obs
	@rm -f coverage_summary.txt
	@$(GO) tool cover -func=coverage_core.out | awk -v floor=$(COVER_FLOOR_CORE) \
		'/^total:/ { pct = $$3 + 0; printf "internal/core  %.1f%%  (floor %d%%)\n", pct, floor >> "coverage_summary.txt"; \
		if (pct < floor) { printf "FAIL: internal/core coverage %.1f%% below floor %d%%\n", pct, floor; exit 1 } }'
	@$(GO) tool cover -func=coverage_obs.out | awk -v floor=$(COVER_FLOOR_OBS) \
		'/^total:/ { pct = $$3 + 0; printf "internal/obs   %.1f%%  (floor %d%%)\n", pct, floor >> "coverage_summary.txt"; \
		if (pct < floor) { printf "FAIL: internal/obs coverage %.1f%% below floor %d%%\n", pct, floor; exit 1 } }'
	@cat coverage_summary.txt

# bench-build vets and tests the wall-clock benchmark (benchmark/, see
# BENCHMARK.json). It is a nested module that imports internal/*, so
# `go build ./... && go test ./...` from the root never compiles it: an
# internal/core API slip would otherwise surface only when the benchmark
# is next run.
bench-build:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# verify is the tier-1 gate (see ROADMAP.md): everything must pass before
# a change lands.
verify: build vet test race determinism cover-check fuzz-smoke bench-build bench-data-smoke bench-commit-smoke bench-recovery-smoke bench-fleet-smoke

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# bench-seal prints the sealer's micro rows: a 6.7 MB checkpoint-sized Seal
# under every option set and the deflate encoder against compress/flate on
# one segment, each on one and two cores, five times. The rows come out in
# the same order every run, so two runs diff line by line.
bench-seal:
	$(GO) test ./internal/sealer -run '^$$' -bench 'Seal/part6m|DeflateSegment' -cpu 1,2 -count 5

# bench-data measures the cloud data path on the deterministic simulated
# WAN (virtual-clock latencies: exact and machine-independent) and
# records BENCH_datapath.json: serial vs parallel dump upload and recovery
# prefetch, sealer allocs, the streamed-datapath gate and the
# delta_checkpoint section. `ginja-bench json` exits non-zero if the dump's
# peak resident bytes exceed 2 × CheckpointUploaders × MaxObjectSize, if
# the dump did not actually split into parts, or if bytes stayed queued
# after close; and, on the 1 %-dirty workload run with incremental delta
# checkpoints and with classic full re-dumps, if a delta crossing ships
# (or reads under the stop-writes gate) more than 15 % of a full re-dump,
# if recovering through a maximum-length chain costs more than 2x a fresh
# base, or if either recovery is not byte-identical to the primary. The
# smoke variant runs the small scenario and is part of `make verify`.
bench-data:
	$(GO) run ./cmd/ginja-bench json -out BENCH_datapath.json

bench-data-smoke:
	$(GO) run ./cmd/ginja-bench json -smoke

# bench-commit measures the commit path before/after WAL batch packing —
# throughput, batch-latency quantiles, PUTs-per-batch, allocs-per-commit
# and the costmodel $/day projection — and records BENCH_commitpath.json.
# Deterministic: latencies are virtual time on the simulated 40 ms WAN.
bench-commit:
	$(GO) run ./cmd/ginja-bench json -path commit -out BENCH_commitpath.json

bench-commit-smoke:
	$(GO) run ./cmd/ginja-bench json -path commit -smoke

# bench-recovery measures RPO and RTO directly: deterministic sim fault
# schedules (crash mid-batch, outage then crash, crash during a multi-part
# dump) replayed across seeds under the virtual clock, reporting data-loss
# window and recovery-time percentiles plus the per-phase RTO budget into
# BENCH_recovery.json. `ginja-bench json` exits non-zero if any scenario
# fails its consistent-prefix check, recovers nothing, or if no run
# measures a non-zero data-loss window (the RPO watermark regressed).
bench-recovery:
	$(GO) run ./cmd/ginja-bench json -path recovery -out BENCH_recovery.json

bench-recovery-smoke:
	$(GO) run ./cmd/ginja-bench json -path recovery -smoke

# bench-fleet measures fleet mode — many tenant databases multiplexed in
# one process over shared upload/fetch pools and one bucket — swept over
# 1/10/100/1000 tenants: per-tenant goroutine and heap footprint, the
# hot tenant's commit p50/p99 while an antagonist tenant dumps, and the
# fleet-wide Safety-deadline-miss count, into BENCH_fleet.json.
# `ginja-bench json` exits non-zero if any sweep point records a Safety
# deadline miss, if commit p50 at 100 tenants exceeds 1.5x solo, or if
# the per-tenant footprint grows more than 10% from 10 to 1000 tenants.
# The smoke variant sweeps 1/10/100 and is part of `make verify`.
bench-fleet:
	$(GO) run ./cmd/ginja-bench json -path fleet -out BENCH_fleet.json

bench-fleet-smoke:
	$(GO) run ./cmd/ginja-bench json -path fleet -smoke

# bench-pair is how a performance claim is measured (ROADMAP item 3): the
# wall-clock benchmark on PARENT (a revision, required) and on this
# checkout, seeds 1..PAIRS, the side that runs first alternating, then the
# benchmark's own -compare verdict. WORKLOAD may name several,
# space-separated. Everything stays under benchmark/out/.
WORKLOAD ?= bulk_cycle
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh "$(PARENT)" "$(WORKLOAD)" $(PAIRS)
