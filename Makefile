GO ?= go
BENCH_DURATION ?= 1s
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: all build test race allocs vet fuzz ci obs-smoke trace-smoke bench-range bench-xact bench-durable bench-recovery bench-batch bench-json profile benchdiff bench-ab bench-ab-all

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-critical packages (the STM with
# its prepared-transaction tests, the speculation-friendly tree, the tree
# registry with the elastic-move regression, the sharded forest with the
# cross-shard transaction oracle and Move tortures, the ftx coordinator,
# the observability registry/flight recorder, and the public facade). The
# timeout guards against a stress test livelocking under the detector's
# serialization. The AllocsPerRun == 0 gates run here too and hold today (the
# detector's shadow memory is not counted as Go allocations), but what they
# gate is the uninstrumented build: `make allocs` is their home. Should a
# toolchain change make them fail here only, skip them under a `race` build
# tag rather than loosen them.
race:
	$(GO) test -race -timeout 10m ./internal/stm ./internal/sftree ./internal/trees ./internal/ring ./internal/forest ./internal/ftx ./internal/durable ./internal/obs .

# Every steady-state allocation gate of the module — the tests asserting
# testing.AllocsPerRun == 0, named ...ZeroAllocs, ...AllocFree,
# ...PooledContext..., ...RetainCapacity or ...Reentrant — in one run WITHOUT
# the race detector: instrumentation changes what escapes to the heap, so a
# count taken under -race describes a binary nobody ships. -count=1 because
# a cached pass proves nothing about the toolchain in use.
allocs:
	$(GO) test -count=1 -run 'Alloc|PooledContext|RetainCapacity|Reentrant' ./...

# Live-endpoint smoke: run a short durable sharded benchmark with the
# observability server attached and scrape /metrics mid-run, asserting
# that every layer's metric families (stm, sftree, forest pool, ftx,
# durable, Go runtime) appear in one exposition.
obs-smoke:
	$(GO) test -run TestObsEndpointSmoke -count=1 -v .

# Span-tracer smoke: run a short durable batched contended benchmark with
# full sampling and scrape /trace mid-hammer, asserting the accumulated
# spans cover every instrumented layer — an STM retry, a combiner batch
# wait, an ftx prepare phase, and a WAL append stretching to its
# group-commit fsync.
trace-smoke:
	$(GO) test -run TestTraceEndpointSmoke -count=1 -v .

vet:
	$(GO) vet ./...

# Short fuzz smoke over the durable on-disk codecs: the WAL record framing
# and the incremental-checkpoint delta/manifest formats. Each corpus is
# seeded with valid encodings plus systematic corruptions; a few seconds per
# fuzzer is enough to keep the decode/re-encode identity and the
# never-crash-on-garbage property honest in CI (go test allows one -fuzz
# pattern per invocation, hence three runs).
FUZZTIME ?= 5s
fuzz:
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzRecordDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzDeltaDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/durable -run '^$$' -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME)

# Range-scan microbenchmark points: the scan mix at one shard (the paper's
# single-domain tree) and at eight (per-shard snapshot + k-way merge).
bench-range:
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 10 -range-frac 0.1 -range-len 100 -shards 1 -header
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 10 -range-frac 0.1 -range-len 100 -shards 8

# Cross-shard transfer microbenchmark points: the multi-key transfer
# workload at one shard (every transaction on the coordinator's
# single-shard fallback) and at eight (the shard-ordered two-phase commit),
# with the cross-shard dial at both extremes. The xact_* CSV columns report
# the coordinator's commit/abort/fallback/intent-conflict accounting.
bench-xact:
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -xact-frac 0.2 -shards 1 -header
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -xact-frac 0.2 -shards 8
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -xact-frac 0.2 -xact-cross 0 -shards 8

# Durability microbenchmark points: the WAL-attached forest at one and
# eight shards under asynchronous group commit, and the per-operation
# fsync regime. The durable CSV columns report log bytes/records/syncs,
# checkpoints, and the timed post-run recovery (recovery_ms,
# recovered_keys).
bench-durable:
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 1 -header
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -fsync -shards 8

# Recovery-cost microbenchmark points: the same durable workload at two
# store sizes (key ranges 1<<15 and 1<<17), with incremental checkpoints on
# (the default chain, ckpt_compact 8) and off (-ckpt-compact -1, the
# pre-delta full-checkpoint regime). The ckpt_bytes and ckpt_dirty_frac
# columns show checkpoint cost tracking churn rather than store size, and
# recovery_ns/recovery_appliers time the segment-parallel replay of the
# directory after the run.
bench-recovery:
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 32768 -header
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 32768 -ckpt-compact -1
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 131072
	$(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 131072 -ckpt-compact -1

# Batched-execution microbenchmark points: the contended skewed update mix
# with the per-shard op combiner off and on, at one shard (maximum
# coalescing pressure — the combiner's headline configuration) and at
# eight. The batched_ops/batches/avg_batch CSV columns report the
# coalescing rate; p50_ns/p99_ns report sampled per-op latency.
bench-batch:
	$(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 1 -header
	$(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 1 -batch 64
	$(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 8 -batch 64

# Benchmark points recorded as one JSON artifact per session
# (BENCH_<date>.json) so the perf trajectory is durable (the scheduled
# bench workflow uploads the same artifact weekly). The first two rows are
# the single-thread sf-opt hot-path baselines (update 20 and 10) that the
# cmd/benchdiff regression gate keys on — single-thread rows are the
# meaningful ones on small CI hosts, where multi-thread numbers are mostly
# scheduler noise. The next rows compare the single-domain tree, the
# sharded forest with the default pool, and the sharded forest with an
# explicitly small pool on the skewed (Zipf) workload — the configuration
# the sub-linear-maintenance-CPU claim is about (see the maint_* CSV
# columns); then the multi-key transfer workload at shards 1 and 8 (see
# the xact_* columns) and a durable (WAL-attached) point, followed by the
# recovery-cost pair: the durable workload at key ranges 1<<15 and 1<<17, so
# the artifact records ckpt_bytes/ckpt_dirty_frac (incremental-checkpoint
# cost vs store size) and recovery_ns (segment-parallel replay) at two store
# sizes. The final three rows are the batched-execution series: the contended skewed update mix at
# t8 shards=1 unbatched (anchor) and with the op combiner at batch 64, plus
# the sharded batched point (see the batched_ops/batches/avg_batch and
# p50_ns/p99_ns columns).
bench-json:
	{ $(GO) run ./cmd/microbench -header -tree sf-opt -threads 1 -update 20 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 1 -update 10 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -shards 8 -dist zipf -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -shards 8 -maint-workers 2 -dist zipf -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf -threads 4 -update 20 -shards 8 -maint-workers 2 -dist zipf -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -xact-frac 0.2 -shards 1 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -xact-frac 0.2 -shards 8 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 32768 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 4 -update 20 -durable -shards 8 -range 131072 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 1 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 1 -batch 64 -duration $(BENCH_DURATION) ; \
	  $(GO) run ./cmd/microbench -tree sf-opt -threads 8 -update 20 -dist zipf -shards 8 -batch 64 -duration $(BENCH_DURATION) ; } \
	| $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json

# CPU + allocation profiles of the hot path (single-thread sf-opt, the
# configuration the mechanical-sympathy work targets), written under
# profiles/. Inspect with: go tool pprof -top profiles/cpu.pb.gz
PROFILE_DURATION ?= 3s
profile:
	mkdir -p profiles
	$(GO) run ./cmd/microbench -tree sf-opt -threads 1 -update 20 \
		-duration $(PROFILE_DURATION) \
		-cpuprofile profiles/cpu.pb.gz -memprofile profiles/mem.pb.gz
	@echo "profiles written: profiles/cpu.pb.gz profiles/mem.pb.gz"

# Regression gate: compare the newest checked-in BENCH_*.json baseline
# against a fresh bench-json artifact (or the two files given as BASE= and
# NEW=). Fails when a matched row regresses by more than the threshold.
benchdiff:
	$(GO) run ./cmd/benchdiff $(BENCHDIFF_FLAGS) $(BASE) $(NEW)

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

ci: build vet test race allocs fuzz obs-smoke trace-smoke
