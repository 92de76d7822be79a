GO ?= go

.PHONY: all build test test32 race allocs inline fmt vet cross fuzz ci obs-smoke trace-smoke experiments-smoke examples-smoke bench-smoke profile bench-ab bench-ab-all loc

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
# beside concurrent clients; the arena and the red-black and AVL trees,
# whose aborted attempts give their nodes back to the arena's free list
# while other threads allocate from it; the transactional list under
# vacation's reservations; and the whole-operation layer every tree embeds,
# whose per-thread frame cache grows while other threads read it). The
# forest and ftx packages run a second time at -cpu 2,8: every shard of a forest commits on one version clock, and 8
# Ps on a machine with fewer cores interleave its clock and lock traffic in
# ways the default P count does not. The
# timeout guards against a stress test livelocking under the detector's
# serialization. The AllocsPerRun == 0 gates run here too and hold today (the
# detector's shadow memory is not counted as Go allocations), but what they
# gate is the uninstrumented build: `make allocs` is their home. Should a
# toolchain change make them fail here only, skip them under a `race` build
# tag rather than loosen them.
race:
	$(GO) test -race -timeout 10m ./internal/stm ./internal/sftree ./internal/trees ./internal/ring ./internal/durable ./internal/obs ./internal/vacation ./internal/experiments ./internal/nrtree ./internal/arena ./internal/rbtree ./internal/avltree ./internal/tlist ./internal/txmap .
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
# tree and must stay inlineable (see its doc comment), and so must the
# STM thread's maybeYield, which every transactional access calls and
# which must cost a load and a branch with yield injection off, and the
# forest handle's span helpers begin/end, which keep every operation's
# tracing-off path at one atomic load and a branch, and the maintenance
# walk's touch of the right child, which must stay two loads rather than a
# call per visited node; the build fails here when an edit pushes one past
# the inliner's budget. arena.Node.Child, which picks a hop's child word,
# must inline into sftree's optimized find and the RB/AVL lookup
# (inlined-into PKG,FILE,FUNC,CALLEE checks that -m reports the call site
# inside FUNC's lines of FILE), and on amd64 the optimized find must select
# the child with a CMOV: a branch on a uniform search's direction is
# mispredicted on about half the hops, and the plain
# `w := &n.L; if right { w = &n.R }` select compiles to one.
inlined-into = $(GO) build -gcflags=-m ./$(1) 2>&1 | awk -v src='$(1)/$(2)' -v fn='$(3)' -v callee='$(4)' \
	'BEGIN { while ((getline l < src) > 0) { n++; if (l ~ "^func .*[ )]" fn "\\(") lo = n; else if (lo && !hi && l == "}") hi = n } } \
	index($$0, src ":") == 1 && index($$0, ": inlining call to " callee) { split($$1, p, ":"); if (lo && p[2] >= lo && p[2] <= hi) ok = 1 } \
	END { exit !ok }'
inline:
	@$(GO) build -gcflags=-m ./internal/arena 2>&1 | grep -q 'can inline (\*Arena).Get$$' || \
		{ echo 'inline: (*arena.Arena).Get is no longer inlineable'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/stm 2>&1 | grep -q 'can inline (\*Thread).maybeYield$$' || \
		{ echo 'inline: (*stm.Thread).maybeYield is no longer inlineable'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/forest 2>&1 | grep -c 'can inline (\*Handle)\.\(begin\|end\)$$' | grep -qx 2 || \
		{ echo 'inline: (*forest.Handle).begin and end are no longer both inlineable'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/sftree 2>&1 | grep -q 'inlining call to touch$$' || \
		{ echo 'inline: sftree.touch is no longer inlined into the maintenance walk'; exit 1; }
	@$(GO) build -gcflags=-m ./internal/arena 2>&1 | grep -q 'can inline (\*Node).Child$$' || \
		{ echo 'inline: (*arena.Node).Child is no longer inlineable'; exit 1; }
	@$(call inlined-into,internal/sftree,find.go,findOptimized,arena.(*Node).Child) || \
		{ echo 'inline: arena.Node.Child is no longer inlined into sftree.(*Tree).findOptimized'; exit 1; }
	@$(call inlined-into,internal/txmap,coupled.go,Lookup,arena.(*Node).Child) || \
		{ echo 'inline: arena.Node.Child is no longer inlined into txmap.(*Coupled).Lookup'; exit 1; }
	@[ "$$($(GO) env GOARCH)" != amd64 ] || $(GO) build -gcflags=-S ./internal/sftree 2>&1 | \
		awk '/^[^ \t]/ { in_fn = index($$0, "repro/internal/sftree.(*Tree).findOptimized STEXT") == 1 } in_fn && /\tCMOV/ { ok = 1 } END { exit !ok }' || \
		{ echo 'inline: sftree.(*Tree).findOptimized selects its child without a CMOV'; exit 1; }

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
# vacation run on every tree kind. Each checks itself — move and travel
# panic on a broken invariant, vacation exits 1 on an inconsistent
# database — so the target fails when one of them does.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/move
	$(GO) run ./examples/biased
	$(GO) run ./examples/travel
	for tree in sf sf-opt rb avl nr; do \
		$(GO) run ./cmd/vacation -check -tree $$tree -t 2000 -clients 4 || exit 1; \
	done

# The repo benchmark end to end at smoke size: ./benchmark is built once,
# then every workload BENCHMARK.json declares runs at -quick, untraced
# (-trace 0) and traced (-trace 1), each in a fresh temporary directory
# (durable-large writes where it runs) under a timeout. A run fails on a
# non-zero exit, on the timeout, when its last line is not a correct result
# line, or when a process of the binary is still alive after it returned.
BENCH_SMOKE_TIMEOUT ?= 300
bench-smoke:
	@set -eu; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	bin="$$tmp/bench-smoke"; $(GO) build -o "$$bin" ./benchmark; \
	for w in $(AB_WORKLOADS); do for tr in 0 1; do \
		run="$$w -trace $$tr"; dir=$$(mktemp -d "$$tmp/run.XXXXXX"); \
		if ! (cd "$$dir" && timeout -k 10 $(BENCH_SMOKE_TIMEOUT) "$$bin" -workload $$w -quick -trace $$tr >out.txt 2>err.txt); then \
			echo "bench-smoke: $$run: non-zero exit or timeout"; tail -5 "$$dir/out.txt" "$$dir/err.txt"; exit 1; \
		fi; \
		last=$$(tail -n 1 "$$dir/out.txt"); \
		case "$$last" in '{"correct":true,'*) ;; *) echo "bench-smoke: $$run: last line is not a correct result: $$last"; exit 1;; esac; \
		if pgrep -f "$$bin" >/dev/null; then \
			echo "bench-smoke: $$run: a process of the binary outlived the run"; pkill -9 -f "$$bin"; exit 1; \
		fi; \
		echo "bench-smoke: $$run ok"; rm -rf "$$dir"; \
	done; done

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

# CPU + allocation profiles of one benchmark, written under profiles/ with
# the test binary they belong to. By default the paper's hot path — the
# optimized speculation-friendly tree under 20% effective updates
# (Fig. 5(a)'s OptSFtree cell); PROFILE_PKG and PROFILE_BENCH pick another,
# e.g. make profile PROFILE_PKG=./internal/forest PROFILE_BENCH=AtomicTransferS8.
# Inspect with: go tool pprof -top profiles/cpu.pb.gz
PROFILE_DURATION ?= 3s
PROFILE_PKG ?= .
PROFILE_BENCH ?= Fig5a/OptSFtree
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime $(PROFILE_DURATION) \
		-o profiles/bench.test -outputdir profiles \
		-cpuprofile cpu.pb.gz -memprofile mem.pb.gz $(PROFILE_PKG)
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

ci: build fmt vet cross inline test race test32 allocs fuzz obs-smoke trace-smoke experiments-smoke examples-smoke bench-smoke
