# Single source of truth for the checks CI runs — `make ci` locally is the
# same gate as .github/workflows/ci.yml.

GO ?= go
COVER_MIN ?= 75
FUZZTIME ?= 30s

# Smoke configuration shared by the committed BENCH_PR10.json baseline and
# the CI benchmark-regression gate: both sides must measure the same workload.
# Seven experiments are gated: diskthroughput (QPS paced by the simulated
# device, stable run to run), timedepthroughput (CPU-bound, so its QPS
# moves with background load on shared runners — the wider QPS tolerance
# below absorbs that; a real fast-path regression, the overlay falling back
# to snapshot-level throughput, is a 5-8x drop and still fails loudly),
# cachethroughput (the serving-layer result cache on a Zipfian stream; a
# cache regression collapses the cached rows' QPS by orders of magnitude, so
# runner noise never masks it), faultthroughput (5% injected transient
# read faults through the retry layer; the faulty row's io_retries is near-
# deterministic for the fixed seed, so retry-cost regressions are visible),
# prunethroughput (lower-bound pruning index on vs off; the expanded-
# node counts are fully seed-deterministic, so the gate holds the index's
# work reduction tightly while the QPS rows get the wide tolerance), and
# clusterthroughput (the gateway fronting 1/2/4 device-paced replicas; each
# replica's simulated disk caps its read bandwidth, so the QPS-vs-replicas
# curve is capacity-determined and a routing regression flattens it beyond
# the tolerance), and soakthroughput (sustained /v1/query load against one
# cached in-process replica, binary vs JSON codec; the binary rows must not
# fall below the JSON rows, so a codec or negotiation regression shows up as
# a QPS drop on the binary rows). memthroughput/throughput stay available
# for manual benchdiff comparisons.
BENCH_SMOKE_FLAGS = -exp diskthroughput,timedepthroughput,cachethroughput,faultthroughput,prunethroughput,clusterthroughput,soakthroughput -scale 0.05 -queries 4 -seed 1
BENCH_BASELINE = BENCH_PR10.json
BENCH_QPS_TOL = 0.40

# Long-mode chaos run: randomized fault schedules per invariant class (see
# internal/chaos). CHAOS_SCHEDULES scales every class at once; CI runs the
# -short smoke inside `make cover` and as a dedicated chaos job.
CHAOS_SCHEDULES ?= 1000

.PHONY: build examples test race bench benchmem profile fmt vet lint cover ci \
	serve clean benchgate benchbaseline vulncheck fuzz docscheck chaos chaossmoke \
	cluster-smoke soak-smoke

build:
	$(GO) build ./...

# Explicit examples build: ./... already covers them, but CI runs this as a
# separate step so a doc-snippet regression is named in the failing step
# rather than buried in the main build.
examples:
	$(GO) build ./examples/...

# Known-vulnerability scan (govulncheck: symbol-level reachability against
# the Go vulnerability database). Skips with a notice when the tool is not
# installed (offline dev boxes); the CI vulncheck job always has it.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed, skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every benchmark: a smoke run, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Allocation-sensitive benchmarks with -benchmem: the flat-path pop loop and
# the in-memory batch executor must stay allocation-free in steady state,
# and the disk row (CEA skylines behind a 1 % buffer pool) prints the miss
# path's allocs/op next to them.
benchmem:
	$(GO) test -run '^$$' -bench 'BenchmarkExpansion|BenchmarkBatchSkylineMem|BenchmarkDiskSkyline' -benchtime 1x -benchmem ./...

# CPU+heap profiles of the expansion pop loop; inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkExpansion -benchtime 200x \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/flat

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet (errcheck, staticcheck, govet shadow — see
# .golangci.yml). Skips with a notice when golangci-lint is not installed;
# the CI lint job always has it.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: golangci-lint not installed, skipping (CI runs it)"; \
	fi

# Coverage profile with a minimum-total gate (COVER_MIN, default 75%). Runs
# under the race detector so CI gets race + coverage from one pass over the
# test suite instead of two.
cover:
	$(GO) test -race -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | tail -n 20
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { \
		if (t + 0 < min + 0) { printf "FAIL: total coverage %.1f%% below the %d%% gate\n", t, min; exit 1 } \
		printf "coverage gate ok: %.1f%% >= %d%%\n", t, min }'

# Benchmark-regression gate: run the smoke benchmarks and compare against the
# committed baseline. Fails on a QPS drop beyond BENCH_QPS_TOL or any >25%
# physical-I/O growth.
benchgate: build
	$(GO) run ./cmd/mcnbench $(BENCH_SMOKE_FLAGS) -json bench_current.json
	$(GO) run ./cmd/benchdiff -base $(BENCH_BASELINE) -new bench_current.json -qps-tol $(BENCH_QPS_TOL) -v

# Regenerate the committed baseline (run on the reference machine only, then
# commit the result). -runs 5 keeps each row's minimum QPS so a lucky fast
# draw cannot become a baseline every ordinary CI run fails against; the
# deterministic metrics are identical across runs.
benchbaseline: build
	$(GO) run ./cmd/mcnbench $(BENCH_SMOKE_FLAGS) -runs 5 -json $(BENCH_BASELINE)

# Chaos harness. chaossmoke is the CI job: the -short schedule counts under
# the race detector (~30s). chaos is the long-mode run (CHAOS_SCHEDULES
# randomized fault schedules, default 1000) for release qualification or
# fault-layer changes.
chaossmoke:
	$(GO) test -race -short -count=1 ./internal/chaos

# Cluster tier smoke: the gateway suite (in-process replicas behind httptest)
# under the race detector — the decoder-equivalence table (GET, JSON and MCNB
# forms of one request, replica vs gateway under both policies), the
# malformed-input table, failover, the bounded replica read and the
# FuzzV1Query corpus replayed through a gateway. Also part of the plain test
# suite; this target is the dedicated CI step so a decode, scatter-gather or
# failover regression is named in the failing step.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster

# Soak smoke: mcnsoak drives one second of sustained /v1/query load through
# each codec against an in-process replica, then one second through the
# gateway (proxied verbatim, on the same decode path as the replica). Exits
# non-zero when any request fails, so a wire-protocol or negotiation
# regression is named in its own CI step.
soak-smoke: build
	$(GO) run ./cmd/mcnsoak -duration 1s -clients 4 -scale 0.02 -queries 8
	$(GO) run ./cmd/mcnsoak -duration 1s -clients 4 -replicas 2 -scale 0.02 -queries 8

chaos:
	CHAOS_SCHEDULES=$(CHAOS_SCHEDULES) $(GO) test -race -count=1 -timeout 60m ./internal/chaos

# Native Go fuzzing sessions. Over the query invariants: skyline (mutual
# non-dominance + maximality vs the materialised baseline), top-k (score
# monotonicity + NaiveTopK agreement + pruned-vs-unpruned byte-identity) and
# within (budget soundness/completeness + pruned-vs-unpruned). Over hostile
# input: the MCNB request and response decoders (no panic, accepted frames
# are a fixed point of the codec) and the serving handler itself
# (FuzzV1Query: arbitrary body x Content-Type x Accept on /v1/query plus
# arbitrary query strings on the GET routes — only 200/400/503, errors
# decodable in the negotiated codec). `go test` accepts one -fuzz target per
# invocation, so the targets run sequentially, each for FUZZTIME. CI runs a
# short smoke (FUZZTIME=10s); locally run with a longer budget to hunt.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSkylineInvariants -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzTopKInvariants -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzWithinInvariants -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzV1Query -fuzztime $(FUZZTIME) ./internal/serve

# Docs freshness: the markdown dead-link/anchor and package-comment checks
# (internal/docscheck, also part of the ordinary test suite) plus a `go doc`
# smoke over every package, so a doc comment that no longer renders fails
# loudly here instead of rotting on pkg.go.dev.
docscheck:
	$(GO) test ./internal/docscheck
	@for pkg in $$($(GO) list ./...); do \
		$(GO) doc $$pkg >/dev/null || exit 1; \
	done; echo "go doc smoke ok over $$($(GO) list ./... | wc -l) packages"

# cover subsumes race (it runs the suite with -race), so ci does not run
# both.
ci: fmt vet build examples cover bench benchmem lint vulncheck docscheck

# Serve a synthetic network locally (see cmd/mcnserve for flags).
serve:
	$(GO) run ./cmd/mcnserve -synthetic

clean:
	$(GO) clean ./...
	rm -f coverage.out bench_current.json
