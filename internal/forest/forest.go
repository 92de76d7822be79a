// Package forest shards the uint64 key space across S trees of one STM
// domain, turning the paper's single-tree design into a partitioned
// structure whose transactions still span the whole key space.
//
// Every shard is a tree of any trees.Kind in the forest's one stm.STM, and
// — for the speculation-friendly variants — swept by one sftree.Driver whose
// worker pool the shards share. Keys are routed to shards by a fixed
// avalanche hash of the key. Sharding still buys what partitioning trees
// buys: S shallower trees and maintenance sweeps that split S ways across
// the pool. What it does not split is the version clock: every commit of
// the forest advances one clock, as in the paper's one TM domain, so a
// durable forest logs one WAL record per commit and checkpoints at one cut
// whatever the shard count. A single global clock is TL2's known scaling
// limit at many cores; the 2-vCPU host this was measured on cannot probe
// it.
//
// # Atomicity semantics
//
// One STM makes every composition an ordinary transaction, whichever
// shards it touches:
//
//   - Single-key operations (Insert, Delete, Get, Contains) are exactly as
//     atomic as on the underlying tree: one transaction on one tree.
//   - Handle.Update runs fn as one transaction; each Op routes its key to
//     the owning shard's tree.
//   - Handle.Atomic runs fn inside one transaction against the ftx.Tx,
//     which buffers its writes until fn returns nil (internal/ftx).
//   - Move(src, dst) is one transaction over the source and destination
//     keys' trees, on one shard or two.
//   - Range, Keys and Len read every shard in one read-only transaction:
//     one snapshot of the whole forest.
//
// With one shard a Forest is semantically identical to the bare tree: the
// paper's configuration, one tree in one STM domain. Every repro.Tree is a
// Forest.
package forest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Forest is a sharded transactional map from uint64 keys to uint64 values.
// Create one with New; every goroutine accessing it must use its own Handle.
type Forest struct {
	kind trees.Kind
	stm  *stm.STM
	maps []trees.Map // the shards' trees, indexed by shard
	// drv sweeps the speculation-friendly shards. It has no workers when
	// the forest runs no maintenance, and its Pause still brackets Quiesce
	// and the statistics accessors.
	drv *sftree.Driver

	// fr and tracer are the optional observability hooks (obs.go): the
	// flight recorder receives the coordinators' events and the tracer the
	// sampled per-operation span timelines (handle.go's begin/end). Atomic pointers because they attach while
	// application goroutines are already running operations.
	fr     atomic.Pointer[obs.FlightRecorder]
	tracer atomic.Pointer[obs.Tracer]
	// coordMu/coords track every transaction coordinator handed out by
	// Handle.Atomic, so the registry's ftx collector can aggregate their
	// per-coordinator snapshots into forest-wide series.
	coordMu sync.Mutex
	coords  []*ftx.Coordinator

	// wal is the attached write-ahead log (nil for a volatile forest):
	// every committed mutating transaction appends one record through it,
	// once the transaction has returned, at the thread's LastCommit
	// position, so aborted attempts log nothing. Set once by AttachWAL
	// before concurrent use.
	wal *durable.Log
	// ckptTh is the checkpointer's STM thread (Snapshot), lazily
	// created and touched only by the single checkpoint driver.
	ckptTh *stm.Thread
}

// AttachWAL connects the forest to a write-ahead log: from now on every
// committed mutating transaction — single-key updates, composed Update
// transactions, moves and Atomic commits — appends one durable record
// carrying its commit-clock position, whichever shards it touched.
// Attach before the forest is shared between goroutines (repro.Open does it
// between recovery replay and returning); reads and the maintenance
// subsystem are unaffected, since structural transactions never change the
// abstraction's contents.
func (f *Forest) AttachWAL(l *durable.Log) {
	f.wal = l
}

// Checkpoint snapshot chunk sizes. A whole-shard CTL transaction holds the
// shard in its read set (~262k entries at 2¹⁶ pairs), revalidates all of it
// on every timestamp extension and restarts from the root on any hit: under
// two writers one shard was observed at 2 426 attempts, 2.8 s and 110 M
// reads for a 65 k-pair snapshot, ending only when the scheduler happened
// to park both writers. Chunks keep a conflict's cost at one chunk and the
// read set at a few thousand entries.
const (
	snapChunkPairs = 1024 // pairs per Snapshot transaction, at most
	snapChunkMin   = 16   // what a chunk that keeps losing shrinks to
)

// chunkSize is the current chunk size of one snapshot call. The chance
// that a chunk loses to a writer grows with its length twice over — longer
// to read, more keys to hit — so a size that loses is halved before the
// retry and a size that won first time is doubled back for the next chunk:
// a snapshot under any write rate settles where most chunks commit, and
// one under none runs at the maximum throughout.
type chunkSize struct {
	n, hi int
	tries int // attempts of the current chunk
}

// attempt is called at the top of every attempt of a chunk's transaction
// and returns the size to read.
func (c *chunkSize) attempt() int {
	if c.tries > 0 {
		c.n = max(c.n/2, snapChunkMin)
	}
	c.tries++
	return c.n
}

// committed is called once the chunk's transaction has committed.
func (c *chunkSize) committed() {
	if c.tries == 1 {
		c.n = min(2*c.n, c.hi)
	}
	c.tries = 0
}

// Snapshot implements durable.Source: every shard streamed through fn, each
// in ascending key order, as a sequence of small consistent read-only
// transactions — each scans the next chunk of up to snapChunkPairs pairs of
// a shard from where the last one stopped — returning the minimum of the
// chunks' clock positions (see durable.Source for why the minimum is the
// safe cut: every shard's chunks draw their positions from the forest's one
// clock). Single-caller (the checkpoint driver).
func (f *Forest) Snapshot(fn func(k, v uint64)) uint64 {
	if f.ckptTh == nil {
		f.ckptTh = f.stm.NewThread()
	}
	th := f.ckptTh
	cut := ^uint64(0)
	var (
		m       trees.Map
		lo, pos uint64
		limit   int
		size    = chunkSize{n: snapChunkPairs, hi: snapChunkPairs}
		chunk   = make([]kv, 0, snapChunkPairs)
	)
	collect := func(k, v uint64) bool {
		chunk = append(chunk, kv{k, v})
		return len(chunk) < limit
	}
	// A read-only CTL transaction regardless of the domain default, so each
	// chunk is one consistent cut at its tx.Snapshot() (an unlogged first
	// attempt's rv never moves, a logged retry's ends where its last
	// extension left it); fn is fed only after the chunk's transaction
	// commits (retries reset the buffer).
	scan := func(tx *stm.Tx) {
		limit = size.attempt()
		chunk = chunk[:0]
		m.RangeTx(tx, lo, ^uint64(0), collect)
		pos = tx.Snapshot()
	}
	for _, m = range f.maps {
		for lo = 0; ; lo = chunk[len(chunk)-1].k + 1 {
			th.AtomicRO(scan)
			size.committed()
			cut = min(cut, pos)
			for _, e := range chunk {
				fn(e.k, e.v)
			}
			if len(chunk) < limit || chunk[len(chunk)-1].k == ^uint64(0) {
				break
			}
		}
	}
	return cut
}

// The forest is the durable layer's checkpoint source.
var _ durable.Source = (*Forest)(nil)

// Option configures New.
type Option func(*cfg)

type cfg struct {
	shards      int
	mode        stm.Mode
	maintenance bool
	yieldEvery  int
}

// WithShards sets the number of partitions (default 1; must be >= 1).
func WithShards(n int) Option { return func(c *cfg) { c.shards = n } }

// WithTMMode selects the TM algorithm of the forest's STM domain.
func WithTMMode(m stm.Mode) Option { return func(c *cfg) { c.mode = m } }

// WithoutMaintenance suppresses the maintenance workers; the caller
// drives maintenance manually via Quiesce.
func WithoutMaintenance() Option { return func(c *cfg) { c.maintenance = false } }

// WithYield enables the STM interleaving simulation (stm.WithYield).
func WithYield(n int) Option { return func(c *cfg) { c.yieldEvery = n } }

// New creates an empty forest of the given tree kind. Unless
// WithoutMaintenance is given, the speculation-friendly kinds are swept by
// a shared pool of min(shards, GOMAXPROCS/2) maintenance workers, at least
// one, started immediately; Close stops it.
func New(kind trees.Kind, opts ...Option) *Forest {
	c := cfg{shards: 1, mode: stm.CTL, maintenance: true}
	for _, o := range opts {
		o(&c)
	}
	if c.shards < 1 {
		panic(fmt.Sprintf("forest: shard count %d < 1", c.shards))
	}
	s := stm.New(stm.WithMode(c.mode), stm.WithYield(c.yieldEvery))
	f := &Forest{kind: kind, stm: s, maps: make([]trees.Map, c.shards)}
	var swept []*sftree.Tree
	for i := range f.maps {
		f.maps[i] = trees.New(kind, s)
		// The no-restructuring tree wraps an sftree.Tree but is its own
		// type, so it is not swept.
		if t, ok := f.maps[i].(*sftree.Tree); ok {
			swept = append(swept, t)
		}
	}
	workers := 0
	if c.maintenance && len(swept) > 0 {
		workers = max(1, min(len(swept), runtime.GOMAXPROCS(0)/2))
	}
	f.drv = sftree.NewDriver(workers, swept...)
	return f
}

// Kind reports the tree library backing every shard.
func (f *Forest) Kind() trees.Kind { return f.kind }

// Shards reports the number of partitions.
func (f *Forest) Shards() int { return len(f.maps) }

// Close stops the maintenance workers. The forest remains fully usable
// (readable and writable); only the structural upkeep stops. Closing an
// already-closed forest is a documented no-op, and Close is safe to call
// concurrently with Stats/MaintenanceStats — maintenance is
// guaranteed stopped once Close and any overlapping accessors return.
func (f *Forest) Close() { f.drv.Close() }

// PoolStats is a snapshot of the maintenance workers' activity; Workers is
// 0 when the forest runs no maintenance.
type PoolStats struct {
	sftree.DriverStats

	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	Wakeups uint64
	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	Backlog int
}

// PoolStats returns a snapshot of the pool's activity counters. Counters
// and the Workers size accumulate across Stats-induced pause/resume
// cycles and survive Close — Close freezes the numbers, it does not zero
// them.
func (f *Forest) PoolStats() PoolStats { return PoolStats{DriverStats: f.drv.Stats()} }

// Quiesce runs maintenance sweeps on every shard until clean (up to
// maxPasses each; sftree.Tree.Quiesce). The workers are paused for the
// duration (the sweeps are single-driver). The shards are quiesced in
// parallel by min(shards, GOMAXPROCS) goroutines, the caller among them,
// each pulling the next shard index from a shared counter: every shard
// keeps its own maintenance thread and arena, so the shards share nothing
// but the STM's clock, and each ends exactly as a Quiesce of it alone
// would leave it. A one-shard forest, or one running on one P, quiesces
// inline. The wall time is thus about the largest shard's, or the sum
// over the shards divided by the P count, whichever is longer.
func (f *Forest) Quiesce(maxPasses int) {
	defer f.drv.Pause()()
	var next atomic.Int64
	quiesce := func() {
		for i := next.Add(1) - 1; i < int64(len(f.maps)); i = next.Add(1) - 1 {
			trees.Quiesce(f.maps[i], maxPasses)
		}
	}
	var wg sync.WaitGroup
	for range min(len(f.maps), runtime.GOMAXPROCS(0)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			quiesce()
		}()
	}
	quiesce()
	wg.Wait()
}

// mix is the splitmix64 finalizer: a full-avalanche bijection on uint64, so
// dense key ranges (the benchmark's [0, range) universe) spread evenly over
// shards instead of striping.
func mix(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// ShardOf returns the index of the shard owning key k.
func (f *Forest) ShardOf(k uint64) int {
	if len(f.maps) == 1 {
		return 0
	}
	return int(mix(k) % uint64(len(f.maps)))
}

// Stats returns the STM statistics summed over every thread of the
// forest's domain. The
// maintenance workers are paused while their threads' counters are read
// (those are plain fields readable only while their owner is quiet);
// caller handles must be quiescent (as for stm.Thread.Stats).
func (f *Forest) Stats() stm.Stats {
	defer f.drv.Pause()()
	return f.stm.TotalStats()
}

// MaintenanceStats sums structural-activity counters over all shards
// (zero value for kinds without maintenance).
func (f *Forest) MaintenanceStats() sftree.Stats {
	var t sftree.Stats
	for _, m := range f.maps {
		if sf, ok := m.(interface{ Stats() sftree.Stats }); ok {
			t.Add(sf.Stats())
		}
	}
	return t
}

// Rotations sums structural rotations over shards whose kind exposes them.
func (f *Forest) Rotations() (uint64, bool) {
	var total uint64
	any := false
	for _, m := range f.maps {
		if r, ok := trees.Rotations(m); ok {
			total += r
			any = true
		}
	}
	return total, any
}
