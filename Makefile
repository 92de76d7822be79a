GO ?= go

.PHONY: all build test test32 race allocs inline fmt vet cross fuzz ci obs-smoke trace-smoke experiments-smoke examples-smoke profile bench-ab bench-ab-all loc

all: build

build:
	$(GO) build ./...

# Line counts of the module's Go sources, split into non-test and test
# files (tracked plus untracked-but-not-ignored, so a change is counted
# before it is committed).
loc:
	@files() { git ls-files --cached --others --exclude-standard -- '*.go' | sort -u; }; \
	echo "non-test Go: $$(files | grep -v '_test\.go$$' | xargs cat | wc -l)"; \
	echo "test Go:     $$(files | grep '_test\.go$$' | xargs cat | wc -l)"

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-critical packages (the STM with
# its prepared-transaction tests, the speculation-friendly tree with its
# maintenance driver, the tree registry with the elastic-move regression,
# the sharded forest with the Atomic transaction oracle and Move
# tortures, the ftx coordinator, the observability registry/flight
# recorder, the public facade, and the vacation, paper-figure runner and
# no-restructuring packages, which start maintenance through trees.Start
# beside concurrent clients). The forest and ftx packages run a second time
# at -cpu 2,8: every shard of a forest commits on one version clock, and 8
# Ps on a machine with fewer cores interleave its clock and lock traffic in
# ways the default P count does not. The
# timeout guards against a stress test livelocking under the detector's
# serialization. The AllocsPerRun == 0 gates run here too and hold today (the
# detector's shadow memory is not counted as Go allocations), but what they
# gate is the uninstrumented build: `make allocs` is their home. Should a
# toolchain change make them fail here only, skip them under a `race` build
# tag rather than loosen them.
race:
	$(GO) test -race -timeout 10m ./internal/stm ./internal/sftree ./internal/trees ./internal/ring ./internal/durable ./internal/obs ./internal/vacation ./internal/experiments ./internal/nrtree .
	$(GO) test -race -timeout 10m -cpu 2,8 ./internal/forest ./internal/ftx

# The internal packages' tests on a 32-bit build: the only run where int is
# 32 bits wide (a uint64 counter converted to int goes negative after 2³¹),
# and, with no race detector, the only test run of the arena's heap-chunk
# fallback (chunk_heap.go).
test32:
	GOARCH=386 $(GO) test ./internal/...

# Every steady-state allocation gate of the module — the tests asserting
# testing.AllocsPerRun == 0, named ...ZeroAllocs, ...AllocFree,
# ...PooledContext..., ...RetainCapacity or ...Reentrant — in one run WITHOUT
# the race detector: instrumentation changes what escapes to the heap, so a
# count taken under -race describes a binary nobody ships. -count=1 because
# a cached pass proves nothing about the toolchain in use.
allocs:
	$(GO) test -count=1 -run 'Alloc|PooledContext|RetainCapacity|Reentrant' ./...

# Inlining gate: arena.Get resolves a Ref once per traversal hop in every
# tree and must stay inlineable (see its doc comment); the build fails here
# when an edit pushes it past the inliner's budget.
inline:
	@$(GO) build -gcflags=-m ./internal/arena 2>&1 | grep -q 'can inline (\*Arena).Get$$' || \
		{ echo 'inline: (*arena.Arena).Get is no longer inlineable'; exit 1; }

# Live-endpoint smoke: drive a short durable sharded workload through the
# facade with the observability server attached and scrape /metrics
# mid-run, asserting that every layer's metric families (stm, sftree,
# forest pool, ftx, durable, Go runtime) appear in one exposition.
obs-smoke:
	$(GO) test -run TestObsEndpointSmoke -count=1 -v .

# Span-tracer smoke: drive a short durable contended workload through the
# facade with full sampling and poll /trace while it runs, asserting the
# accumulated spans cover every instrumented layer — an STM retry, an
# Atomic op with the attempt spans of its commit transaction, and a WAL
# append stretching to its group-commit fsync.
trace-smoke:
	$(GO) test -run TestTraceEndpointSmoke -count=1 -v .

# Every table and figure of the paper (cmd/experiments) end to end at
# millisecond cells: the paper-figure CLI stays runnable, numbers mean
# nothing at this size.
experiments-smoke:
	$(GO) run ./cmd/experiments -duration 20ms -threads 1,2 all

# The runnable programs end to end: the four examples/ and a short checked
# vacation run. Each checks itself — move and travel panic on a broken
# invariant, vacation -check exits 1 on an inconsistent database — so the
# target fails when one of them does.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/move
	$(GO) run ./examples/biased
	$(GO) run ./examples/travel
	$(GO) run ./cmd/vacation -check -t 2000 -clients 2

vet:
	$(GO) vet ./...

# Cross-build gate: the arena's heap-chunk fallback (chunk_heap.go) is what
# every platform but linux/amd64 and linux/arm64 runs, and no native build
# here compiles it outside the race detector.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

# Format gate: fails, listing the files, when gofmt would change any.
fmt:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "fmt: gofmt -l lists:"; echo "$$out"; exit 1; }

# Short fuzz smoke over the durable on-disk codecs: the WAL record framing
# and the checkpoint file format. Each corpus is seeded with valid
# encodings; a few seconds per fuzzer is enough to keep the decode/re-encode
# identity and the never-crash-on-garbage property honest in CI (go test
# allows one -fuzz pattern per invocation, hence two runs).
FUZZTIME ?= 5s
fuzz:
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzRecordDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME)

# CPU + allocation profiles of the paper's hot path — the optimized
# speculation-friendly tree under 20% effective updates (Fig. 5(a)'s
# OptSFtree cell) — written under profiles/ with the test binary they
# belong to. Inspect with: go tool pprof -top profiles/cpu.pb.gz
PROFILE_DURATION ?= 3s
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'Fig5a/OptSFtree' -benchtime $(PROFILE_DURATION) \
		-o profiles/repro.test -outputdir profiles \
		-cpuprofile cpu.pb.gz -memprofile mem.pb.gz .
	@echo "profiles written: profiles/cpu.pb.gz profiles/mem.pb.gz"

# A/B measurement of the working tree against a git ref with the repo
# benchmark, as the choosing-metrics guide prescribes: both sides built once,
# PAIRS runs of each on WORKLOAD alternating which side goes first, a fresh
# seed per pair (the same for both sides of it), then the benchmark's own
# -compare over the two result files. Everything lands under AB_OUT, which
# .gitignore covers; the ref's sources are unpacked there too (git archive,
# so no worktree is registered), on the same filesystem as the working
# tree's runs because durable-large writes where it runs.
#
#	make bench-ab BASE=HEAD~1 WORKLOAD=xshard-transfer PAIRS=10
BASE ?= HEAD
WORKLOAD ?= xshard-transfer
PAIRS ?= 10
SEED ?= 100
AB_OUT ?= benchmark/out/ab
bench-ab:
	@set -eu; mkdir -p $(AB_OUT); out=$$(cd $(AB_OUT) && pwd); \
	rm -rf "$$out/src-base"; mkdir "$$out/src-base"; \
	git archive $(BASE) | tar -x -C "$$out/src-base"; \
	(cd "$$out/src-base" && $(GO) build -o "$$out/bench-base" ./benchmark); \
	$(GO) build -o "$$out/bench-new" ./benchmark; \
	rm -f "$$out/base-$(WORKLOAD).jsonl" "$$out/new-$(WORKLOAD).jsonl"; \
	run() { (cd "$$2" && "$$out/bench-$$1" -workload $(WORKLOAD) -seed "$$3" -out "$$out/$$1-$(WORKLOAD).jsonl" >/dev/null); }; \
	i=1; while [ $$i -le $(PAIRS) ]; do \
		seed=$$(( $(SEED) + i )); \
		if [ $$(( i % 2 )) -eq 1 ]; then \
			run base "$$out/src-base" $$seed; run new . $$seed; \
		else \
			run new . $$seed; run base "$$out/src-base" $$seed; \
		fi; \
		echo "bench-ab: $(WORKLOAD) pair $$i/$(PAIRS) done (seed $$seed)"; \
		i=$$(( i + 1 )); \
	done; \
	rm -rf "$$out/src-base"; \
	$(GO) run ./benchmark -compare "$$out/base-$(WORKLOAD).jsonl" "$$out/new-$(WORKLOAD).jsonl"

# bench-ab over every workload BENCHMARK.json declares (its entries that
# carry a "why"), then the four -compare tables once more in one block: the
# claimed row and all the must-not-move rows of a change from one command.
# A regression verdict in one workload does not stop the others; the target
# fails at the end if any table did.
#
#	make bench-ab-all BASE=HEAD~1 PAIRS=10
AB_WORKLOADS ?= $(shell grep -B1 '"why"' BENCHMARK.json | sed -n 's/.*"name": "\(.*\)",/\1/p')
bench-ab-all:
	@status=0; for w in $(AB_WORKLOADS); do \
		$(MAKE) --no-print-directory bench-ab BASE=$(BASE) WORKLOAD=$$w PAIRS=$(PAIRS) SEED=$(SEED) AB_OUT=$(AB_OUT) || status=1; \
	done; \
	echo "bench-ab-all: $(BASE) vs working tree, $(PAIRS) pairs per workload"; \
	for w in $(AB_WORKLOADS); do \
		$(GO) run ./benchmark -compare "$(AB_OUT)/base-$$w.jsonl" "$(AB_OUT)/new-$$w.jsonl" || status=1; \
	done; exit $$status

ci: build fmt vet cross inline test race test32 allocs fuzz obs-smoke trace-smoke experiments-smoke examples-smoke
