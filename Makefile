# Single source of truth for the checks CI runs — `make ci` locally is the
# same gate as .github/workflows/ci.yml.

GO ?= go
COVER_MIN ?= 75
FUZZTIME ?= 30s

# Long-mode chaos run: randomized fault schedules per invariant class (see
# internal/chaos). CHAOS_SCHEDULES scales every class at once; CI runs the
# -short smoke inside `make cover` and as a dedicated chaos job.
CHAOS_SCHEDULES ?= 1000

.PHONY: build examples test race bench benchmem profile fmt vet lint cover ci \
	serve clean vulncheck fuzz docscheck chaos chaossmoke \
	cluster-smoke soak-smoke benchverify paperio

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

# mcnmark's self-check: every workload for one second with answer checking
# on; exits 1 on a wrong answer. A product rename that breaks
# benchmark/surface.go fails here (it no longer compiles), not in the next
# PR's measurement.
benchverify:
	$(GO) run ./benchmark -verify

# The reproduction's own metric — page accesses per query behind the
# paper's LRU buffer — must be a function of the query sequence alone: two
# runs of the same figures have to print byte-identical phys_io, logical_io
# and results columns (CSV columns 5, 6, 8; the timing columns legitimately
# differ). An iteration order that reaches the store through a Go map fails
# here.
paperio:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for run in 1 2; do \
		$(GO) run ./cmd/mcnbench -exp fig8a,fig10a -scale 0.03 -queries 6 -csv "$$dir/$$run.csv" >/dev/null || exit 1; \
		cut -d, -f1-3,5,6,8 "$$dir/$$run.csv" >"$$dir/$$run.io"; \
	done && \
	if diff "$$dir/1.io" "$$dir/2.io"; then \
		echo "paperio ok: $$(($$(wc -l <"$$dir/1.io") - 1)) rows identical across two runs"; \
	else \
		echo "FAIL: fig. 8a/10a page accesses differ between two runs of the same binary"; exit 1; \
	fi

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
ci: fmt vet build examples cover bench benchmem lint vulncheck docscheck \
	benchverify paperio

# Serve a synthetic network locally (see cmd/mcnserve for flags).
serve:
	$(GO) run ./cmd/mcnserve -synthetic

clean:
	$(GO) clean ./...
	rm -f coverage.out
