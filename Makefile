# Convenience targets for the clusteragg reproduction.

GO ?= go

.PHONY: all build test vet lint race test-race check cover bench bench-all bench-short bench-mem bench-ingest bench-obs bench-huge benchdiff experiments experiments-full fuzz fuzz-localsearch fuzz-kernel fuzz-objective fuzz-widths fuzz-ingest loc clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static hygiene: go vet, a repo-wide gofmt check (fails listing any file
# that gofmt would rewrite), and a fused-multiply-add guard. arm64 (like
# ppc64 and s390x) may fuse x*y+z into one FMA instruction, which rounds
# once instead of twice and would break the bit-identical distances and
# labels the amd64 baselines pin; an explicit float64(x*y) conversion
# forbids the fusion. The guard disassembles the arm64 archive of
# internal/core (objdump, not -gcflags=-S, which a cached build would skip)
# and fails on any fused instruction, listing its source lines.
lint: vet
	@fmt=$$(gofmt -l .); \
	if [ -n "$$fmt" ]; then \
		echo "lint: gofmt needed on:"; echo "$$fmt"; exit 1; \
	fi; \
	echo "lint: gofmt clean"
	@tmp=$$(mktemp /tmp/core-arm64.XXXXXX.a); \
	dis=$$(GOARCH=arm64 $(GO) build -o $$tmp ./internal/core && $(GO) tool objdump $$tmp); \
	st=$$?; rm -f $$tmp; \
	if [ $$st -ne 0 ] || [ -z "$$dis" ]; then \
		echo "lint: could not disassemble the arm64 build of internal/core"; exit 1; \
	fi; \
	fused=$$(echo "$$dis" | grep -E 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'); \
	if [ -n "$$fused" ]; then \
		echo "lint: fused multiply-add in the arm64 build of internal/core:"; echo "$$fused"; exit 1; \
	fi; \
	echo "lint: no fused multiply-add in arm64 internal/core"

race: test-race

test-race:
	$(GO) test -race ./...

# The full gate: compile, vet + gofmt, tests, the race detector, the obs
# coverage floor, the allocation pins, one pass of the distance-kernel
# benchmarks (a smoke test that they still run), the ingest benchmark suite,
# the obs-overhead cost sheet, and the bench-report regression diff against
# the committed baseline.
check: build lint test test-race cover bench-mem bench-short bench-ingest bench-obs benchdiff

# Regression gate: regenerate the bench report and diff it against the
# committed BENCH_experiments.json (counters exact, cost to float tolerance,
# wall time ratio-thresholded; machine-dependent series ignored — see
# cmd/benchdiff). Fails the build on any unreviewed behavior change.
benchdiff:
	@tmp=$$(mktemp /tmp/benchdiff.XXXXXX.json); \
	$(GO) run ./cmd/experiments -report $$tmp all >/dev/null && \
	$(GO) run ./cmd/benchdiff BENCH_experiments.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

# The telemetry layer is the one subsystem every algorithm and both CLIs
# depend on, so its statement coverage is gated: the build fails when
# internal/obs drops below the floor.
OBS_COVER_FLOOR ?= 85.0

cover:
	@tmp=$$(mktemp /tmp/obscover.XXXXXX.out); \
	$(GO) test -coverprofile=$$tmp ./internal/obs/ >/dev/null && \
	total=$$($(GO) tool cover -func=$$tmp | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	st=$$?; rm -f $$tmp; \
	if [ $$st -ne 0 ] || [ -z "$$total" ]; then echo "cover: failed to measure internal/obs"; exit 1; fi; \
	echo "internal/obs coverage: $$total% (floor $(OBS_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(OBS_COVER_FLOOR)) }" || \
		{ echo "cover: internal/obs coverage $$total% is below the $(OBS_COVER_FLOOR)% floor"; exit 1; }

# The distance-kernel suite: block materialization vs the naive build,
# LOCALSEARCH row fast path vs generic, the incremental LOCALSEARCH kernel
# vs the reference sweep, BestOf racing, and the label-kernel assignment
# pass vs the test-side probing reference on one sample state, and the
# objective's lower bound (lattice route vs the row-pair scan) at the
# facade shape (see docs/PERFORMANCE.md for how to read the numbers).
bench:
	$(GO) test -run xxx -bench 'BenchmarkMaterialize$$|BenchmarkLocalSearchMatrix$$|BenchmarkLocalSearchIncremental$$|BenchmarkBestOf$$|BenchmarkSampleAssign$$|BenchmarkSampleLarge$$|BenchmarkLowerBound$$' -benchmem ./internal/core/

# One iteration of the kernel suite, as a fast correctness smoke test.
bench-short:
	$(GO) test -run xxx -bench 'BenchmarkMaterialize$$|BenchmarkLocalSearchMatrix$$|BenchmarkLocalSearchIncremental$$|BenchmarkBestOf$$|BenchmarkSampleAssign$$|BenchmarkSampleLarge$$|BenchmarkLowerBound$$' -benchtime 1x -benchmem ./internal/core/

# The allocation-pin suite: testing.AllocsPerRun assertions that the hot
# paths (pooled assignment scratch, kernel distance rows, packed label
# accessors, CSV interning) hold their zero-/constant-allocation steady
# state, plus byte budgets for the objective (TestObjectiveAllocs), the
# assignment pass (TestAssignKernelAllocs) and wide-label materialization
# (TestMatrixWideLabelAllocs). Part of
# `make check`; any new per-object allocation fails here before it shows up
# as a benchdiff alloc regression.
bench-mem:
	$(GO) test -run 'Alloc' -count=1 ./internal/core/ ./internal/dataset/ ./internal/obs/

# The ingest suite: CSV reader throughput at 1/2/8 chunk parsers next to
# the test-side sequential oracle (internal/dataset, full benchtime with
# -benchmem) plus one smoke pass of the end-to-end CSV→labels facade
# benchmarks (the "ingest" artifact and the pipelined AggregateCSV path).
# Part of `make check`.
bench-ingest:
	$(GO) test -run xxx -bench 'BenchmarkReadCSV$$' -benchmem ./internal/dataset/
	$(GO) test -run xxx -bench 'BenchmarkIngestThroughput$$|BenchmarkAggregateCSV$$' -benchtime 1x -benchmem .

# The observability cost sheet: the BenchmarkObsOverhead suite prices the
# hooks compiled into the algorithms — Do/Event/Sample on their disabled
# (nil/off) paths must stay a few ns and 0 B/op, with the live paths printed
# alongside for comparison. The allocation *assertions* live in bench-mem
# (TestDisabledObsZeroAllocs); this prints the numbers.
bench-obs:
	$(GO) test -run xxx -bench 'BenchmarkObsOverhead' -benchmem ./internal/obs/

# The n=10M artifact, opt-in (never part of bench, bench-short, or check —
# the top rung runs for tens of seconds and allocates gigabytes): one pass of
# BenchmarkSampleHuge, then the experiments "huge" scaling ladder diffed
# against the committed BENCH_huge.json baseline (counters and cluster counts
# exact, Rand index toleranced, wall time ratio-budgeted).
bench-huge:
	$(GO) test -run xxx -bench 'BenchmarkSampleHuge$$' -benchtime 1x -benchmem ./internal/core/
	@tmp=$$(mktemp /tmp/benchhuge.XXXXXX.json); \
	$(GO) run ./cmd/experiments -report $$tmp huge && \
	$(GO) run ./cmd/benchdiff BENCH_huge.json $$tmp; \
	st=$$?; rm -f $$tmp; exit $$st

# Fuzz the incremental LOCALSEARCH kernel against the reference sweep.
fuzz-localsearch:
	$(GO) test -run FuzzLocalSearchIncremental -fuzz FuzzLocalSearchIncremental -fuzztime 30s ./internal/corrclust/

# Fuzz the columnar label kernel's Dist and DistRowTo against the
# test-side probeDist oracle (a plain per-clustering walk over the labels).
fuzz-kernel:
	$(GO) test -run FuzzLabelKernelEquiv -fuzz FuzzLabelKernelEquiv -fuzztime 30s ./internal/core/

# Fuzz the contingency-count Disagreement and the distinct-row LowerBound
# against the test-side pair scans over probeDist, across missing modes,
# weights, label widths, labelings, and lower-bound worker counts.
fuzz-objective:
	$(GO) test -run FuzzObjective -fuzz FuzzObjective -fuzztime 30s ./internal/core/

# Fuzz the width-packed label blocks: uint8/uint16 must be bit-identical to
# the forced-int32 kernel on the same instance.
fuzz-widths:
	$(GO) test -run FuzzLabelKernelWidths -fuzz FuzzLabelKernelWidths -fuzztime 30s ./internal/core/

# Fuzz the chunked CSV reader against the test-side sequential oracle:
# tables (ids, order, missing cells) and errors must be identical at every
# worker count and chunk size.
fuzz-ingest:
	$(GO) test -run '^FuzzReadCSVEquiv$$' -fuzz '^FuzzReadCSVEquiv$$' -fuzztime 30s ./internal/dataset/

# Everything: one benchmark per table/figure plus the ablations.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at the default (reduced) scale.
experiments:
	$(GO) run ./cmd/experiments all

# The paper's original sizes (minutes).
experiments-full:
	$(GO) run ./cmd/experiments -full all

# Short fuzzing passes over the CSV loader and partition invariants.
fuzz:
	$(GO) test -run '^FuzzReadCSV$$' -fuzz '^FuzzReadCSV$$' -fuzztime 30s ./internal/dataset/
	$(GO) test -run '^FuzzNormalize$$' -fuzz '^FuzzNormalize$$' -fuzztime 30s ./internal/partition/
	$(GO) test -run '^FuzzDistance$$' -fuzz '^FuzzDistance$$' -fuzztime 30s ./internal/partition/

# Tracked size of the program: non-test Go lines outside perfbench/ (the
# benchmark harness) and the benchmark's build directory.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l

clean:
	$(GO) clean ./...
	rm -rf internal/dataset/testdata/fuzz internal/partition/testdata/fuzz internal/core/testdata/fuzz
