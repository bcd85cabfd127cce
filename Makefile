# Single source of truth for the checks CI runs — `make ci` locally is the
# same gate as .github/workflows/ci.yml.

GO ?= go
COVER_MIN ?= 75
FUZZTIME ?= 30s

# Long-mode chaos run: randomized fault schedules per invariant class (see
# internal/testsupport/chaos). CHAOS_SCHEDULES scales every class at once; CI
# runs the -short smoke inside `make cover` and as a dedicated chaos job.
CHAOS_SCHEDULES ?= 1000

.PHONY: build crossbuild examples test race bench benchmem profile profile-disk profile-build fmt vet lint cover ci \
	serve clean vulncheck fuzz docscheck chaos chaossmoke \
	cluster-smoke serve-smoke update-smoke soak-smoke benchverify paperio

build:
	$(GO) build ./...

# Cross-build for windows and darwin, so platform-specific code (the storage
# layer maps database files on unix and reads them with ReadAt elsewhere)
# keeps building everywhere. benchmark/ is left out: it is Linux-only by
# design (its child processes die with it through Pdeathsig).
CROSS_PKGS = . ./cmd/... ./internal/... ./examples/...
crossbuild:
	GOOS=windows $(GO) build $(CROSS_PKGS)
	GOOS=darwin $(GO) build $(CROSS_PKGS)
	@echo "crossbuild ok: windows, darwin"

# Build and run every example (all seven take well under a second): ./...
# already compiles them, but CI runs this as a separate step so a facade
# change that breaks a walkthrough at build or at run time is named in the
# failing step rather than buried in the main build.
examples:
	$(GO) build ./examples/...
	@for ex in examples/*/; do \
		$(GO) run ./$${ex%/} >/dev/null || { echo "FAIL: $${ex%/}"; exit 1; }; \
	done; echo "examples ok: $$(ls -d examples/*/ | wc -l) ran"

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
# the in-memory batch executor must stay allocation-free in steady state, the
# sf25 flat-query rows print a CEA skyline's and a top-4's cost on a network
# that outgrows the cache,
# the disk rows (CEA and LSA skylines behind a 1 % buffer pool: the record
# memo and the direct decode path) print the miss path's allocs/op next to
# them, the maintainer rows print what one facility insert costs (an edge
# lookup and O(d) arithmetic, no traversal) and what building a maintainer
# costs (d node-distance passes over the flat source's heads column, run
# concurrently, then one sweep of the facility records),
# the time-dependent rows print one SetProfile plus the skyline read after
# it, axis kept and axis moved (either way the edit builds one edge's cost
# rows and shares the rest; the read compiles nothing), the start-up
# row prints what mcnserve -timedep's compile allocates (New plus
# AttachSyntheticProfiles on the td2k shape), the period-sweep rows print
# one 6-interval skyline or top-k sweep on td2k with its queries/sweep (the
# intervals that ran a static query rather than being skipped because no
# cost the last run read had changed), and the result-cache row
# times the parallel hit path (one mutex, one map probe; at 1x its allocs
# are RunParallel's own — TestHitAllocatesNothing pins the hit at zero), and
# the served-hit row prints what one cached GET costs through
# Server.Handler(): URL decode, cache probe and the JSON envelope rendered
# by the append encoder (TestCachedHitAllocs bounds its allocs). The two
# build rows print what bringing the sf25 network online costs: a database
# written to disk with its pruning index (CreateDatabase) and a network
# compiled in memory (FromGraph, whose index waits for the first within),
# and the index rows print the pruning index's build alone, on sf25 and at
# the paper's scale 1.0 (IndexFromGraph: the passes' scratch is pooled, so
# its allocs are the table and the reversed arc set).
benchmem:
	$(GO) test -run '^$$' -bench 'BenchmarkExpansion|BenchmarkFlatQuery|BenchmarkBatchSkylineMem|BenchmarkDiskSkyline|BenchmarkMaintainerInsert|BenchmarkMaintainerBuild|BenchmarkSetProfileThenRead|BenchmarkAttachSyntheticProfiles|BenchmarkOverPeriod|BenchmarkCacheHitParallel|BenchmarkServeCachedHit|BenchmarkCreateDatabase|BenchmarkFromGraph|BenchmarkIndexFromGraph' -benchtime 1x -benchmem ./...

# CPU+heap profiles of whole flat-path queries on the sf25 shape (a network
# that outgrows L2, so memory layout shows); inspect with
# `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
profile:
	$(GO) test -run '^$$' -bench BenchmarkFlatQuery -benchtime 1024x \
		-cpuprofile cpu.prof -memprofile mem.prof ./internal/flat

# CPU+heap profiles of disk-resident skylines: BenchmarkDiskSkyline's file
# rows (CEA and LSA over a database file opened as mcn.OpenDatabase opens it,
# behind a 1 % buffer pool), where B+-tree descents, page misses and record
# decoding show beside expansion; inspect with `go tool pprof cpu-disk.prof`
# / `go tool pprof mem-disk.prof`.
profile-disk:
	$(GO) test -run '^$$' -bench 'BenchmarkDiskSkyline/file/' -benchtime 2048x \
		-cpuprofile cpu-disk.prof -memprofile mem-disk.prof .

# CPU+heap profiles of database builds: BenchmarkCreateDatabase, the sf25
# network's locality order, record layout, B+-trees, pruning index (built
# alongside on its own goroutines) and checksums, all encoded in the
# memory device's own pages, then written with one write per slab and
# renamed into place; inspect with `go tool pprof cpu-build.prof` /
# `go tool pprof mem-build.prof`. The index's backward passes dominate; time
# them alone with `go test -bench IndexFromGraph ./internal/index`.
profile-build:
	$(GO) test -run '^$$' -bench BenchmarkCreateDatabase -benchtime 32x \
		-cpuprofile cpu-build.prof -memprofile mem-build.prof .

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
# here. The same runs assert the paper's first claim: in every fig. 8a / 10a
# row, CEA accesses no more pages than LSA (phys_io, column 5).
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
	fi && \
	awk -F, 'NR > 1 && $$3 == "LSA" { lsa[$$1 FS $$2] = $$5 } \
		NR > 1 && $$3 == "CEA" { cea[$$1 FS $$2] = $$5 } \
		END { \
			for (k in cea) { \
				n++; \
				if (!(k in lsa)) { print "FAIL: no LSA row for " k; bad = 1 } \
				else if (cea[k] + 0 > lsa[k] + 0) { print "FAIL: " k ": CEA phys_io " cea[k] " > LSA " lsa[k]; bad = 1 } \
			} \
			if (n == 0) { print "FAIL: no CEA rows"; bad = 1 } \
			if (!bad) print "paperio ok: CEA phys_io <= LSA phys_io in all " n " rows"; \
			exit bad \
		}' "$$dir/1.csv"

# Chaos harness. chaossmoke is the CI job, under the race detector: the
# -short schedule counts, the fault-injecting device's own tests, and, three
# times over, the lent-page contract of the storage layer: queries racing
# Close on a database file (each answer the oracle's or os.ErrClosed),
# queries over a file truncated behind the open network (the oracle's
# answer or io.ErrUnexpectedEOF, one counted failure each), an
# eviction-churn stress in which every page handed out carries its own
# stamp, and a device closed under readers, so a regression in the fault
# layer is named in this one step. chaos is the long-mode run
# (CHAOS_SCHEDULES randomized fault schedules, default 1000) for release
# qualification or fault-layer changes.
chaossmoke:
	$(GO) test -race -short -count=1 ./internal/testsupport/chaos ./internal/testsupport/fault
	$(GO) test -race -count=3 -run '^(TestQueriesRaceClose|TestQueriesOverTruncatedDatabase|TestEvictionChurnStress|TestFileDeviceCloseRacesReads)$$' . ./internal/storage

# Cluster tier smoke: the gateway suite (real gateway and replica handlers
# on memnet, the in-memory HTTP network, and memnet's own contract) under
# the race detector — its slices of the differential lattice (GET, JSON and
# MCNB forms of every query kind through a gateway over three replicas, all
# up, one down and one shedding, each answer held to the oracle and byte
# for byte to a replica; one replica request per query), the
# malformed-input table, 5xx failover, the streamed relay, the
# FuzzV1Query corpus replayed through a gateway, and TestFailureTable: every
# class of the failure table, in every form and codec, of a replica and of a
# gateway over three replicas failing alike — the status, Retry-After and
# message each class renders, and exactly which replicas the gateway asks
# and cools (one deadline leaves all three available) — with
# TestGatewayTimeoutIsADeadline for the gateway's own -timeout. One test,
# TestGatewayStreamPassthrough, serves the gateway on a real socket so
# net/http's own flush path is covered. Also part of the plain test suite;
# this target is the dedicated CI step so a decode, routing or failover
# regression is named in the failing step.
cluster-smoke:
	$(GO) test -race -count=1 ./internal/cluster ./internal/testsupport/memnet

# Serving tier smoke: the executor suite and the serve suite under the race
# detector, three passes — every way a query enters the executor (Do,
# Execute, and Run for streams and period sweeps) through admission, shed,
# drain, panic isolation and cancellation, and the HTTP overload, drain and
# stream tests above it. Also part of `make cover`; this target is the
# dedicated CI step so a race in admission is named in the failing step.
serve-smoke:
	$(GO) test -race -count=3 ./internal/engine ./internal/serve

# Update smoke: queries racing updates under the race detector, three
# passes — the update-mix rows of the differential lattice (a static
# executor and a time-dependent network, with and without one shared result
# cache, read while SetProfile and a maintainer's inserts and deletes race
# them) and their slices in the root package and internal/timedep, plus the
# root package's check that a maintainer's inserts and deletes leave every
# cached static entry a hit with the uncached answer. The second command
# races the result cache's own coalescing, three passes: a herd on one cold
# key, a panicking or failing leader releasing its waiters, a waiter
# outliving its leader's context or leaving at its own deadline, and
# lookups churning against invalidations and evictions. Also part of
# `make cover`; this target is the dedicated CI step, so a race on the
# update path is named in the failing step.
update-smoke:
	$(GO) test -race -count=3 -run '^(TestSetProfileRacesQueries|TestCachedEquivalenceRandomized|TestCachedEquivalenceTimeDependent|TestUpdateMix|TestMaintainerUpdatesInvalidateNothing)$$' \
		. ./internal/timedep ./internal/testsupport/lattice
	$(GO) test -race -count=3 -run '^(TestSingleflightCoalesces|TestPanicReleasesWaiters|TestWaiterOutlivesLeaderContext|TestWaiterKeepsOwnDeadline|TestConcurrentChurn|TestSingleflightLeaderErrorLeavesKeyRetryable)$$' \
		./internal/rescache

# Soak smoke: mcnsoak drives one second of sustained /v1/query load through
# each codec against an in-process replica, then one second through the
# gateway (proxied verbatim, on the same decode path as the replica). Exits
# non-zero when any request fails, so a wire-protocol or negotiation
# regression is named in its own CI step.
soak-smoke: build
	$(GO) run ./cmd/mcnsoak -duration 1s -clients 4 -scale 0.02 -queries 8
	$(GO) run ./cmd/mcnsoak -duration 1s -clients 4 -replicas 2 -scale 0.02 -queries 8

chaos:
	CHAOS_SCHEDULES=$(CHAOS_SCHEDULES) $(GO) test -race -count=1 -timeout 60m ./internal/testsupport/chaos

# Native Go fuzzing sessions. Over the query answers: FuzzLattice draws a
# seed and a two-word mode mask and checks the differential lattice's rows
# of the mask (the wire rows included) on the instance for the seed — every
# query kind against the brute-force oracle and the reference row. Over the
# JSON response encoder: any Result or PeriodResult renders byte-identically
# to encoding/json's reflection (FuzzJSONEnvelope). Over hostile
# input: the MCNB request and response decoders (no panic, accepted frames
# are a fixed point of the codec) and the serving handler itself
# (FuzzV1Query: arbitrary body x Content-Type x Accept on /v1/query plus
# arbitrary query strings on the GET routes — only 200/400/503/504, errors
# decodable in the negotiated codec). Over the expansions' priority queue:
# random push/peek/pop interleavings that keep the monotone contract pop
# exactly what a (key, tie)-sorted reference pops (FuzzMonotoneHeap).
# `go test` accepts one -fuzz target per invocation, so the targets run
# sequentially, each for FUZZTIME. CI runs a short smoke (FUZZTIME=10s);
# locally run with a longer budget to hunt.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzLattice -fuzztime $(FUZZTIME) ./internal/testsupport/lattice
	$(GO) test -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzJSONEnvelope -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzV1Query -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzMonotoneHeap -fuzztime $(FUZZTIME) ./internal/expand

# Docs freshness: the markdown dead-link/anchor and package-comment checks
# and the test-only-export gate, TestNoTestOnlyExports (an exported name the
# product does not use fails; internal/docscheck, also part of the ordinary
# test suite), plus a `go doc` smoke over every package, so a doc comment
# that no longer renders fails loudly here instead of rotting on
# pkg.go.dev.
docscheck:
	$(GO) test ./internal/docscheck
	@for pkg in $$($(GO) list ./...); do \
		$(GO) doc $$pkg >/dev/null || exit 1; \
	done; echo "go doc smoke ok over $$($(GO) list ./... | wc -l) packages"

# cover subsumes race (it runs the suite with -race), so ci does not run
# both.
ci: fmt vet build crossbuild examples cover bench benchmem lint vulncheck docscheck \
	benchverify paperio

# Serve a synthetic network locally (see cmd/mcnserve for flags).
serve:
	$(GO) run ./cmd/mcnserve -synthetic

clean:
	$(GO) clean ./...
	rm -f coverage.out
