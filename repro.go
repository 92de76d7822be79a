// Package repro is a Go reproduction of "A Speculation-Friendly Binary
// Search Tree" (Crain, Gramoli, Raynal — PPoPP 2012): a concurrent binary
// search tree designed for optimistic (transactional) synchronization, built
// on a word-based software transactional memory, together with the
// transactional red-black, AVL and no-restructuring trees the paper
// evaluates against, and a port of the STAMP vacation application;
// cmd/experiments regenerates the paper's tables and figures from them.
//
// The speculation-friendly tree decouples each update into an abstract
// transaction (insert, logical delete, contains — tiny read/write sets) and
// background structural transactions (node-local rotations, physical
// removals, garbage collection) run by a maintenance worker, so abstract
// operations rarely conflict and aborted work stays small.
//
// # Quick start
//
//	t := repro.NewTree(repro.SpeculationFriendly)
//	defer t.Close()
//	h := t.NewHandle() // one handle per goroutine
//	h.Insert(42, 420)
//	v, ok := h.Get(42)
//
// Operations compose into larger atomic transactions — the reusability the
// paper demonstrates with its move operation (§5.4):
//
//	h.Update(func(op *repro.Op) {
//		if v, ok := op.Get(1); ok {
//			op.Delete(1)
//			op.Insert(2, v)
//		}
//	})
//
// # Scaling beyond one STM domain
//
// Every Tree is a forest of hash-partitioned shards (internal/forest): S
// trees in one STM domain. The default of one shard is the paper's design,
// one tree in one domain. WithShards splits the key space across S trees,
// which buys what partitioning trees buys — shallower trees, maintenance
// sweeps split across a worker pool, per-shard WAL records, checkpoint
// files and recovery appliers — while every transaction still spans the
// whole key space, because the shards share the domain's one version
// clock. That single global clock is TL2's known scaling limit at many
// cores; the 2-vCPU host this was measured on cannot probe it.
// WithContention selects the abort→retry policy:
//
//	t := repro.NewTree(repro.SpeculationFriendlyOptimized,
//		repro.WithShards(8), repro.WithContention(repro.ContentionBackoff))
//
// Update composes tree operations inside one STM transaction on any shards;
// Handle.Atomic buffers reads and writes and commits them in one replaying
// transaction (internal/ftx), which lets fn abort with an error and nothing
// applied:
//
//	h.Atomic(func(t *repro.Txn) error {
//		a, _ := t.Get(accA)
//		b, _ := t.Get(accB)
//		t.Put(accA, a-25)
//		t.Put(accB, b+25)
//		return nil // any non-nil error aborts with nothing applied
//	})
package repro

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/durable"
	"repro/internal/forest"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Kind selects the tree library backing a Tree.
type Kind = trees.Kind

// The available tree libraries, named as in the paper's evaluation.
const (
	// SpeculationFriendly is the portable speculation-friendly tree
	// (paper Algorithm 1): fully transactional traversals.
	SpeculationFriendly = trees.SF
	// SpeculationFriendlyOptimized is the optimized variant (Algorithm 2):
	// unit-read traversals and copy-on-rotate (§3.3).
	SpeculationFriendlyOptimized = trees.SFOpt
	// RedBlack is the Oracle-style transactional red-black baseline.
	RedBlack = trees.RB
	// AVL is the STAMP-style transactional AVL baseline.
	AVL = trees.AVL
	// NoRestructuring never rebalances nor physically removes (baseline).
	NoRestructuring = trees.NR
)

// TMMode selects the transactional-memory algorithm.
type TMMode = stm.Mode

// The supported TM algorithms (§5.3's portability axis).
const (
	// CommitTimeLocking is TinySTM-CTL-style lazy acquirement (default).
	CommitTimeLocking = stm.CTL
	// EncounterTimeLocking is TinySTM-ETL-style eager acquirement.
	EncounterTimeLocking = stm.ETL
	// ElasticTransactions is the E-STM elastic transaction model.
	ElasticTransactions = stm.Elastic
)

// ContentionPolicy names an abort→retry policy of the STM's
// transaction-lifecycle engine.
type ContentionPolicy string

const (
	// ContentionSuicide retries an aborted transaction almost immediately
	// (the paper reproduction's original behavior).
	ContentionSuicide ContentionPolicy = "suicide"
	// ContentionBackoff stalls aborted transactions with randomized
	// exponential backoff (the default).
	ContentionBackoff ContentionPolicy = "backoff"
)

// Tree is a concurrent ordered map from uint64 keys to uint64 values backed
// by one of the paper's tree libraries over the package's STM. It is a
// hash-sharded forest of such trees in one STM domain; the default of one
// shard is the paper's configuration, one tree. Create one
// with NewTree (or Open, for a durable tree); every goroutine accessing it
// must use its own Handle.
type Tree struct {
	f *forest.Forest
	// dlog is the attached write-ahead log of a durable tree (repro.Open);
	// nil for volatile trees. recovery is what Open reconstructed.
	dlog     *durable.Log
	recovery durable.Recovery
	// Observability layer (WithObservability): the registry every layer
	// registers its metric families into, the bounded flight recorder of
	// coarse-grained events, and the optional HTTP endpoint. All nil
	// without the option.
	obsReg *obs.Registry
	obsFR  *obs.FlightRecorder
	obsTr  *obs.Tracer
	obsSrv *obs.Server
}

// Option configures NewTree.
type Option func(*treeCfg)

type treeCfg struct {
	mode        stm.Mode
	maintenance bool
	shards      int
	cm          stm.ContentionManager
	dur         *durable.Options
	obs         bool
	obsAddr     string
	trace       int // WithTracing sample-every (0 = tracing off)
}

// WithTMMode selects the TM algorithm (default CommitTimeLocking).
func WithTMMode(m TMMode) Option { return func(c *treeCfg) { c.mode = m } }

// WithoutMaintenance suppresses the background maintenance worker(s);
// the caller can drive maintenance manually via Maintain.
func WithoutMaintenance() Option { return func(c *treeCfg) { c.maintenance = false } }

// WithShards hash-partitions the key space across n trees of the tree's one
// STM domain (default 1, the paper's single tree). Every operation keeps
// its atomicity whichever shards it touches — Update, Atomic, Move and
// Range are one transaction each. What sharding buys is partitioned trees:
// shallower trees, maintenance split across a worker pool, and per-shard
// WAL records, checkpoint files and recovery appliers. What it does not
// split is the version clock, which every commit advances. NewTree panics
// on n < 1; Open returns the error.
func WithShards(n int) Option { return func(c *treeCfg) { c.shards = n } }

// WithObservability turns on the tree's observability layer: a metrics
// registry that every layer (STM commit/abort taxonomy, tree maintenance
// per shard, Atomic coordinator, maintenance pool, WAL/checkpoints, Go
// runtime) registers its counter, gauge and histogram families into, plus
// a bounded flight recorder of coarse-grained events (checkpoints,
// recovery, WAL stalls, maintenance bursts, Atomic abort storms). With a
// non-empty addr the layer also serves
// HTTP on it: Prometheus text on /metrics, a JSON snapshot on /snapshot,
// the flight-recorder ring on /flight, and net/http/pprof under
// /debug/pprof/ — pass ":0" for an ephemeral port and read it back with
// Tree.ObsAddr. An empty addr keeps everything in-process (scrape via
// Tree.Obs). The hot-path hooks are single padded atomic adds; the scrape
// path never pauses application or maintenance threads.
//
// NewTree panics when addr cannot be listened on (a configuration error,
// like WithContention's unknown policy); Open returns the error.
func WithObservability(addr string) Option {
	return func(c *treeCfg) {
		c.obs = true
		c.obsAddr = addr
	}
}

// WithTracing turns on sampled distributed-style tracing on top of the
// observability layer (which it implies, as WithObservability("") when no
// address was configured): one in every sampleEvery facade operations is
// sampled at its start — one xorshift draw per op, no atomics on the
// unsampled path — and a sampled operation records a span for each phase it
// crosses: the facade op itself, every STM attempt with its abort cause,
// and the WAL append→fsync completion.
// Spans land in a fixed-size lock-free ring (newest wins) served by the
// /trace endpoint and Tree.Tracer; per-op-kind latency histograms
// (op_latency_nanos) and a top-K slow-op table ride along in the registry.
// sampleEvery <= 1 samples every operation (tests and debugging).
func WithTracing(sampleEvery int) Option {
	return func(c *treeCfg) {
		c.obs = true
		if sampleEvery < 1 {
			sampleEvery = 1
		}
		c.trace = sampleEvery
	}
}

// WithContention selects the contention-management policy consulted between
// an aborted transaction attempt and its retry (default ContentionBackoff).
// It panics on unknown policies (a configuration error).
func WithContention(p ContentionPolicy) Option {
	cm, err := stm.ManagerByName(string(p))
	if err != nil {
		panic(err)
	}
	return func(c *treeCfg) { c.cm = cm }
}

// DurabilityOptions re-exports the durable layer's dials for WithDurability:
// Sync (fsync per operation), GroupCommit (background flush+fsync interval),
// CheckpointEvery (periodic full-checkpoint interval; negative disables),
// MaxUnsynced (backpressure bound on unsynced bytes under group commit),
// and RecoveryAppliers (parallelism of recovery replay).
type DurabilityOptions = durable.Options

// WithDurability sets the durability dials used by Open (the zero value
// selects the defaults: asynchronous group commit every
// durable.DefaultGroupCommit, a checkpoint every
// durable.DefaultCheckpointEvery). It is meaningful only with Open;
// NewTree panics on it, because a durable tree needs a directory.
func WithDurability(o DurabilityOptions) Option {
	return func(c *treeCfg) { c.dur = &o }
}

// configure applies opts over the defaults and validates the result.
func configure(opts []Option) (treeCfg, error) {
	cfg := treeCfg{mode: stm.CTL, maintenance: true, shards: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards < 1 {
		return cfg, fmt.Errorf("repro: shard count %d < 1", cfg.shards)
	}
	return cfg, nil
}

// newForest builds the forest behind a tree of the given kind.
func (c *treeCfg) newForest(kind Kind) *forest.Forest {
	fopts := []forest.Option{
		forest.WithShards(c.shards),
		forest.WithTMMode(c.mode),
		forest.WithContentionManager(c.cm),
	}
	if !c.maintenance {
		fopts = append(fopts, forest.WithoutMaintenance())
	}
	return forest.New(kind, fopts...)
}

// NewTree creates an empty tree of the given kind. Unless
// WithoutMaintenance is given, speculation-friendly kinds start their
// background maintenance worker(s) immediately; Close stops them. NewTree
// panics on a configuration error (a shard count below one, WithDurability,
// an observability address that cannot be listened on).
func NewTree(kind Kind, opts ...Option) *Tree {
	cfg, err := configure(opts)
	if err != nil {
		panic(err)
	}
	if cfg.dur != nil {
		panic("repro: WithDurability requires a directory; use repro.Open(dir, kind, ...)")
	}
	t := &Tree{f: cfg.newForest(kind)}
	if cfg.obs {
		if err := t.setupObs(cfg.obsAddr, cfg.trace); err != nil {
			t.Close()
			panic(err)
		}
	}
	return t
}

// Open creates — or recovers — a durable tree of the given kind backed by
// the write-ahead log and checkpoints in dir (created if missing; the same
// kind and shard count must be used across openings of one directory).
// Every committed update is appended to the log as one checksummed record
// (a transaction whose effects span shards as one multi-shard record),
// group-committed per the WithDurability dials; checkpoints
// rotate and truncate the log. Open first replays dir's newest sealed
// checkpoint plus the surviving log tail into a fresh tree, seals a new
// checkpoint (rebasing the history onto this process's clocks), and then
// starts the periodic checkpointer. Close stops the durability machinery
// after a final flush+fsync.
//
// The recovered state is exact up to the last synced record: with Sync
// that is every operation that returned; under group commit a crash loses
// at most the final unsynced window, within which in-flight operations
// are retained or lost independently (see the durable package comment for
// the precise contract). A torn tail record is detected by its length
// prefix and CRC and cleanly discarded, so a multi-shard transaction is
// recovered wholly or not at all.
func Open(dir string, kind Kind, opts ...Option) (*Tree, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	var dopts durable.Options
	if cfg.dur != nil {
		dopts = *cfg.dur
	}
	l, rec, err := durable.Open(dir, cfg.shards, dopts)
	if err != nil {
		return nil, err
	}
	// Replay the recovered state before attaching the log (the replay must
	// not re-log itself), then seal a fresh checkpoint so the old log
	// generation — whose record positions belong to the previous process's
	// clocks — is truncated and the cuts rebased.
	f := cfg.newForest(kind)
	reload(f, rec.State)
	f.AttachWAL(l)
	if err := l.Checkpoint(f); err != nil {
		l.Close()
		f.Close()
		return nil, err
	}
	l.StartCheckpoints(f)
	t := &Tree{f: f, dlog: l, recovery: *rec}
	if cfg.obs {
		if err := t.setupObs(cfg.obsAddr, cfg.trace); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// setupObs builds the observability layer for a fully constructed tree:
// registry, flight recorder, optional tracer (trace > 0 is the sample-every
// dial), layer registrations, and (addr != "") the HTTP endpoint.
func (t *Tree) setupObs(addr string, trace int) error {
	r := obs.NewRegistry()
	fr := obs.NewFlightRecorder(4096)
	r.SetFlight(fr)
	obs.RegisterRuntime(r)
	if trace > 0 {
		tr := obs.NewTracer(trace, 4096)
		r.SetTracer(tr)
		tr.RegisterObs(r)
		t.f.SetTracer(tr)
		t.obsTr = tr
	}
	t.f.RegisterObs(r)
	t.f.SetFlightRecorder(fr)
	if t.dlog != nil {
		t.dlog.RegisterObs(r)
		t.dlog.SetFlightRecorder(fr)
		if t.obsTr != nil {
			t.dlog.SetTracer(t.obsTr)
		}
		// The recovery pass ran inside Open, before a recorder existed;
		// backfill it as the ring's first event.
		durable.RecordRecovery(fr, &t.recovery)
	}
	if addr != "" {
		srv, err := obs.Serve(addr, r)
		if err != nil {
			return err
		}
		t.obsSrv = srv
	}
	t.obsReg = r
	t.obsFR = fr
	return nil
}

// Obs returns the tree's observability registry for in-process scraping
// (snapshots, diffs, exposition) — nil without WithObservability.
func (t *Tree) Obs() *obs.Registry { return t.obsReg }

// FlightRecorder returns the tree's flight recorder — nil without
// WithObservability. Dump it with its WriteTo, or read Events.
func (t *Tree) FlightRecorder() *obs.FlightRecorder { return t.obsFR }

// Tracer returns the tree's span tracer — nil without WithTracing. Read
// sampled spans with Spans/SlowOps, or scrape /trace on the HTTP endpoint.
func (t *Tree) Tracer() *obs.Tracer { return t.obsTr }

// ObsAddr returns the bound address of the observability HTTP endpoint
// ("" when WithObservability was given an empty addr, or not at all).
func (t *Tree) ObsAddr() string {
	if t.obsSrv == nil {
		return ""
	}
	return t.obsSrv.Addr()
}

// reload rebuilds the recovered state into the fresh forest — in parallel
// when it is big enough to matter, one inserter goroutine per slice of the
// state with its own handle (handles are per-goroutine; the shards'
// per-key transactions make concurrent inserts safe). This is the second
// half of segment-parallel recovery: the durable layer replays the WAL
// across partitioned appliers, and the reload spreads the resulting map
// across the forest's shard domains the same way.
func reload(f *forest.Forest, state map[uint64]uint64) {
	const parallelMin = 1 << 12
	workers := min(f.Shards(), runtime.GOMAXPROCS(0))
	if len(state) < parallelMin || workers < 2 {
		h := f.NewHandle()
		for k, v := range state {
			h.Insert(k, v)
		}
		return
	}
	type kv struct{ k, v uint64 }
	chunks := make([][]kv, workers)
	per := len(state)/workers + 1
	i := 0
	for k, v := range state {
		w := i / per
		chunks[w] = append(chunks[w], kv{k, v})
		i++
	}
	var wg sync.WaitGroup
	for _, chunk := range chunks {
		if len(chunk) == 0 {
			continue
		}
		wg.Add(1)
		go func(chunk []kv) {
			defer wg.Done()
			h := f.NewHandle()
			for _, e := range chunk {
				h.Insert(e.k, e.v)
			}
		}(chunk)
	}
	wg.Wait()
}

// Durable returns the tree's write-ahead log for instrumentation (byte and
// record counters, explicit Sync) — nil for a tree created with NewTree.
func (t *Tree) Durable() *durable.Log { return t.dlog }

// Recovery reports what Open reconstructed from the directory (the zero
// value for volatile trees and fresh directories).
func (t *Tree) Recovery() durable.Recovery { return t.recovery }

// Checkpoint seals one consistent checkpoint of the whole tree and
// truncates the write-ahead log behind it (no-op error on volatile trees).
// The periodic checkpointer does this automatically; explicit calls bound
// recovery time before a planned shutdown.
func (t *Tree) Checkpoint() error {
	if t.dlog == nil {
		return fmt.Errorf("repro: Checkpoint on a tree without durability (use repro.Open)")
	}
	return t.dlog.Checkpoint(t.f)
}

// Sync flushes and fsyncs the write-ahead log: every operation committed
// before Sync returns is durable (no-op error on volatile trees).
func (t *Tree) Sync() error {
	if t.dlog == nil {
		return fmt.Errorf("repro: Sync on a tree without durability (use repro.Open)")
	}
	return t.dlog.Sync()
}

// Close stops background maintenance. The tree remains fully usable
// (readable and writable); only the structural upkeep stops. Closing an
// already-closed tree is a documented no-op, and Close is safe to call
// concurrently with Stats/MaintenanceStats — maintenance is guaranteed
// stopped once Close and any overlapping accessors return.
func (t *Tree) Close() {
	// Stop the durability machinery first: the checkpoint loop snapshots
	// the forest, so it must be quiet before maintenance winds down, and
	// the final flush+fsync makes everything committed so far durable.
	if t.obsSrv != nil {
		t.obsSrv.Close()
		t.obsSrv = nil
	}
	if t.dlog != nil {
		t.dlog.Close()
	}
	t.f.Close()
}

// Maintain runs maintenance passes until the structure is quiescent or
// maxPasses is reached (no-op for kinds without maintenance).
func (t *Tree) Maintain(maxPasses int) { t.f.Quiesce(maxPasses) }

// Shards reports the number of partitions (1 unless WithShards was given).
func (t *Tree) Shards() int { return t.f.Shards() }

// NewHandle returns a handle bound to fresh STM thread state. Handles are
// not safe for concurrent use; create one per goroutine.
func (t *Tree) NewHandle() *Handle { return &Handle{t: t, fh: t.f.NewHandle()} }

// Stats returns the sum of all handles' STM statistics.
// Running maintenance workers are paused while their counters are read;
// the caller's handles should be quiescent for exact values. Stats may be
// called concurrently with Close.
func (t *Tree) Stats() stm.Stats { return t.f.Stats() }

// MaintenanceStats returns structural-activity counters for
// speculation-friendly kinds, summed over shards (zero value otherwise).
func (t *Tree) MaintenanceStats() sftree.Stats { return t.f.MaintenanceStats() }

// MaintPoolStats reports the maintenance scheduler's activity: worker
// count, busy time and sweeps.
type MaintPoolStats = forest.PoolStats

// MaintPoolStats returns a snapshot of the shared maintenance worker pool
// (one worker on a one-shard tree). Workers is the pool size (0
// when the tree was built without maintenance or its kind has none) and,
// like the counters, survives Close — Close freezes the numbers, it does
// not zero them.
func (t *Tree) MaintPoolStats() MaintPoolStats { return t.f.PoolStats() }

// Handle is a per-goroutine accessor to a Tree.
type Handle struct {
	t  *Tree
	fh *forest.Handle
}

// Insert maps k to v; false when k was already present.
func (h *Handle) Insert(k, v uint64) bool { return h.fh.Insert(k, v) }

// Delete removes k; false when absent.
func (h *Handle) Delete(k uint64) bool { return h.fh.Delete(k) }

// Get returns the value at k.
func (h *Handle) Get(k uint64) (uint64, bool) { return h.fh.Get(k) }

// Contains reports whether k is present.
func (h *Handle) Contains(k uint64) bool { return h.fh.Contains(k) }

// Move relocates the value at src to dst (§5.4's composed operation); it
// succeeds only when src is present and dst absent, and it is one
// transaction on every configuration, whichever shards the keys live on.
func (h *Handle) Move(src, dst uint64) bool { return h.fh.Move(src, dst) }

// Txn is the buffering transaction Handle.Atomic runs:
// Get/Contains read through to the owning shard with repeatable-read
// caching, Put/Insert/Delete buffer their effect, and everything commits
// atomically — all or none — when the function returns nil.
type Txn = ftx.Tx

// Atomic runs fn as one atomic transaction over the whole key space,
// regardless of sharding: reads and writes may touch any keys, and the
// commit is all-or-nothing — one STM transaction replays fn's reads and
// applies its buffered writes. A non-nil error from fn aborts with nothing
// applied and is returned verbatim;
// otherwise Atomic retries on conflict until it commits. fn may be
// re-executed and must be free of side effects beyond the Txn and locals
// it re-assigns.
//
// A handle has one transaction context, reset for every attempt, so Atomic
// allocates nothing in steady state. The Txn is therefore valid only inside
// the fn invocation it was passed to — its methods panic afterwards — and
// Atomic must not be called on the same handle from inside fn: that panics
// rather than corrupt the outer transaction. Compose inside one fn.
//
// Update is cheaper when fn needs no buffering or error abort: it runs the
// composition inside the STM transaction directly, with no replay.
func (h *Handle) Atomic(fn func(t *Txn) error) error { return h.fh.Atomic(fn) }

// XactStats reports this handle's Atomic activity: total commits, the
// subsets whose keys lay on one shard and that spanned shards read-only,
// retried aborts and user aborts (zero value before the first Atomic call).
func (h *Handle) XactStats() ftx.Stats { return h.fh.XactStats() }

// Len counts the elements, one consistent snapshot.
func (h *Handle) Len() int { return h.fh.Len() }

// Keys returns the sorted keys, one consistent snapshot.
func (h *Handle) Keys() []uint64 { return h.fh.Keys() }

// Range visits, in ascending key order, every element whose key lies in
// [lo, hi] (both inclusive), calling fn(k, v) for each; fn returning false
// stops the scan early. Range reports whether the scan ran to the end of
// the interval. The visited elements are one consistent snapshot, on a
// sharded tree too: one read-only transaction collects every shard, whose
// snapshots are then merged in key order.
func (h *Handle) Range(lo, hi uint64, fn func(k, v uint64) bool) bool {
	return h.fh.Range(lo, hi, fn)
}

// Ascend visits every element in ascending key order; fn returning false
// stops the scan. It is Range over the whole key space.
func (h *Handle) Ascend(fn func(k, v uint64) bool) bool {
	return h.Range(0, ^uint64(0), fn)
}

// Update runs fn as one atomic transaction; every operation on the Op
// belongs to that transaction, whichever shards its keys live on, so
// arbitrary compositions execute atomically and deadlock-free. fn may
// re-run on conflict: it must not have side effects beyond the Op and
// locals it re-assigns.
func (h *Handle) Update(fn func(op *Op)) { h.fh.Update(fn) }

// Op exposes the tree operations inside a Handle.Update transaction:
// Insert, Delete, Get and Contains, all part of that transaction.
type Op = forest.Op
