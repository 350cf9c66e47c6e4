# Tier-1 verification and benchmarking entry points.

GO ?= go

# The hot-path benchmarks recorded in BENCH_1.json. Table/Fig benchmarks
# ride along so end-to-end regeneration time is tracked too.
BENCHES = BenchmarkEngineEventRate|BenchmarkPolicyThroughput|BenchmarkBackfillPolicies|BenchmarkTable1|BenchmarkFig5|BenchmarkFaultPathDisabled|BenchmarkDecisionPathDisabled

# The sweep-layer wall-clock benchmark recorded in BENCH_4.json: a
# saturated-heavy figure grid run once with the legacy per-curve schedule
# and no cutoff, once with the overhauled figure schedule and the
# saturation cutoff.
FIGBENCH = BenchmarkFigureWallClock

.PHONY: verify test bench bench-smoke bench-check bench-baseline bench-record cpuprofile lint fmt-check

# verify is the tier-1 gate: formatting, vet, build, the detlint
# determinism rules (cmd/mclint), the full test suite, and the test
# suite again under the race detector.
verify: fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) run ./cmd/mclint ./...
	$(GO) test ./...
	$(GO) test -race ./...

test:
	$(GO) test ./...

# lint runs go vet plus the detlint static-analysis suite: the
# syntactic determinism and pooling invariants (nowallclock,
# noglobalrand, nomaprange, eventretain, jobretain), their
# interprocedural closures over the whole-module call graph (taintflow,
# handleflow, scratchescape), discarded Close/Flush errors (closecheck),
# the //detlint:noalloc compiler escape gate (noalloc), and dead
# suppression directives (stalesuppress). `go run ./cmd/mclint -help`
# prints the rule catalog; `-json` emits findings for tooling.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/mclint ./...

# fmt-check fails when any file drifts from gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; \
	fi

# bench re-measures the hot paths and records them under the "after" key
# of BENCH_1.json (preserving the recorded baseline).
bench:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem . | $(GO) run ./scripts/benchjson -key after -o BENCH_1.json

# bench-smoke runs every recorded benchmark three times single-shot and
# pipes the output through the regression guard, which takes the
# per-benchmark minimum (the noise filter for shared machines): the run
# fails when the macro benchmarks (Fig5, BackfillPolicies/* — including
# GS-CONS and GS-EASY — FaultPathDisabled/* and DecisionPathDisabled/*,
# the zero-overhead-when-off contracts) regress more than 10% in
# allocs/op or 35% in ns/op against the "smoke" snapshot of
# BENCH_3.json — so CI catches benchmarks that rot, hot paths that
# quietly start allocating, and algorithmic speedups that get
# accidentally reverted. The time gate is deliberately loose
# (single-shot wall clock is noisy); re-record the snapshot when moving
# to slower hardware.
#
# The second guard run covers the sweep layer: both arms of the figure
# wall-clock benchmark are gated against BENCH_4.json, and the
# machine-independent speedup gate fails the run if the overhauled arm
# (figure schedule + saturation cutoff) drops below 3x the legacy arm —
# the record the sweep overhaul claims.
bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchtime 1x -count 3 -benchmem . | $(GO) run ./scripts/benchguard -record BENCH_3.json -key smoke -max-time-regress 0.35
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchtime 1x -count 3 -benchmem . | $(GO) run ./scripts/benchguard -record BENCH_4.json -key smoke -match '^BenchmarkFigureWallClock/' -max-time-regress 0.35 -speedup-base BenchmarkFigureWallClock/legacy -speedup-test BenchmarkFigureWallClock/overhauled -min-speedup 3

# bench-check runs the repository benchmark's self-tests, then its drivers
# workload (trace replay, constant backlog and a faulted, traced open
# system) at both recorded seeds. Each run must report "correct":true,
# which requires its output digest to equal the committed reference.
# run.sh exits 0 even when a check fails, so the JSON line is grepped.
bench-check:
	cd perfbench && $(GO) test ./...
	@for seed in 1 7; do \
		bash perfbench/run.sh --workload drivers --seed $$seed --seconds 1 --trace 0 | grep -q '"correct":true' || \
			{ echo "bench-check: drivers workload at seed $$seed is not correct"; exit 1; }; \
	done

# bench-record re-measures the hot paths into BENCH_3.json: the amortized
# numbers under "after" (the profile-overhaul record README cites) and
# a single-shot run under "smoke", the reference bench-smoke guards
# against. The figure wall-clock benchmark is recorded the same way into
# BENCH_4.json (the sweep-overhaul record README cites). Re-run it
# whenever an intentional change moves the needle.
bench-record:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem . | $(GO) run ./scripts/benchjson -key after -o BENCH_3.json
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchtime 1x -benchmem . | $(GO) run ./scripts/benchjson -key smoke -o BENCH_3.json
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchmem . | $(GO) run ./scripts/benchjson -key after -o BENCH_4.json
	$(GO) test -run '^$$' -bench '$(FIGBENCH)' -benchtime 1x -benchmem . | $(GO) run ./scripts/benchjson -key smoke -o BENCH_4.json

# cpuprofile captures a pprof CPU profile of the backfilling macro
# benchmark for hot-path work:
#
#	make cpuprofile
#	go tool pprof -top bench.test cpu.prof
cpuprofile:
	$(GO) test -run '^$$' -bench 'BenchmarkBackfillPolicies' -benchtime 30x -cpuprofile cpu.prof -o bench.test .

# bench-baseline records the same measurements under "baseline"; run it
# before starting an optimization.
bench-baseline:
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem . | $(GO) run ./scripts/benchjson -key baseline -o BENCH_1.json
