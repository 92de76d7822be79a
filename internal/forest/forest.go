// Package forest shards the uint64 key space across S independent
// STM-domain + tree pairs, turning the paper's single-domain
// speculation-friendly tree into a horizontally scalable structure.
//
// Each shard owns a private stm.STM (its own global version clock), a
// private tree of any trees.Kind, and — for the speculation-friendly
// variants — its own maintenance sweep, run by a worker pool the shards
// share (maint.go). Keys are routed to shards by a fixed avalanche hash of
// the key, so the hot single points of the one-domain design
// (version-clock increments, commit-time lock contention) all split S ways
// while every intra-shard property of the paper's algorithm is preserved
// unchanged.
//
// # Atomicity semantics
//
//   - Single-key operations (Insert, Delete, Get, Contains) are exactly as
//     atomic as on the underlying tree: one transaction on one shard.
//   - Composite single-shard transactions (Handle.Update) are routed to the
//     shard owning the routing key and are fully atomic there. Keys from
//     other shards must not be touched inside the transaction (the Op
//     methods panic if they are); use SameShard to check co-location first.
//   - Composite cross-shard transactions (Handle.Atomic) may read and write
//     any keys and commit atomically — all effects or none — through the
//     internal/ftx coordinator's shard-ordered two-phase commit over the
//     per-shard STM domains. When every touched key lands on one shard the
//     coordinator falls back to a single ordinary transaction, so Atomic
//     costs the 2PC machinery only when a transaction actually spans
//     shards; SameShard-routed Update remains the cheapest composition.
//   - Move(src, dst) is atomic always: one single-shard transaction when
//     SameShard(src, dst), one cross-shard ftx transaction otherwise. (The
//     pre-ftx best-effort insert-first/compensate protocol and its move
//     claims are gone.)
//   - Size and Keys compose per-shard snapshots; each shard's contribution
//     is internally consistent but the shards are not cut at one instant.
//   - Range visits [lo, hi] in ascending key order by k-way-merging one
//     ordered snapshot per shard, under exactly the Size/Keys consistency
//     contract: every shard's contribution is one consistent snapshot of
//     the interval, but the shards are not cut at one instant, so a value
//     moving between shards concurrently can be seen at both keys or at
//     neither.
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
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// shard is one partition: a private STM domain and a tree living in it,
// plus the per-shard scheduling state of the shared maintenance pool
// (maint.go). mt is nil for kinds without maintenance.
type shard struct {
	stm *stm.STM
	m   trees.Map
	mt  trees.Maintained

	// intents is the shard's cross-shard-commit intent table: every
	// coordinator (Handle.Atomic) of the forest claims its touched keys
	// here for the prepare→finalize window (see internal/ftx).
	intents ftx.IntentTable

	// claim serializes maintenance drivers: a pool worker sweeps the shard
	// only while holding the claim, which preserves the tree's single-driver
	// contract under a shared pool.
	claim atomic.Bool
	// nextSweep is the unix-nano deadline of the shard's next sweep;
	// sweepGap is the current adaptive gap (capped exponential idle backoff,
	// see maint.go).
	nextSweep atomic.Int64
	sweepGap  atomic.Int64
}

// Forest is a sharded transactional map from uint64 keys to uint64 values.
// Create one with New; every goroutine accessing it must use its own Handle.
type Forest struct {
	kind   trees.Kind
	shards []*shard
	// maintMu serializes every toggle of the maintenance worker pool
	// (Close, and the pause/resume bracket of the statistics accessors and
	// Quiesce): Close may be called concurrently with Stats/ShardStats, and
	// without the lock a racing resume could restart maintenance after
	// Close returned (besides the plain-field data race on maint itself).
	maintMu sync.Mutex
	maint   bool // background maintenance currently enabled; guarded by maintMu
	// pool is the shared maintenance worker pool (nil when maintenance is
	// disabled, stopped, or the kind has none) and maintWorkers its size,
	// both guarded by maintMu; pc accumulates pool counters across
	// pause/resume generations.
	pool         *maintPool
	maintWorkers int
	pc           poolCounters

	// fr and tracer are the optional observability hooks (obs.go): the
	// flight recorder receives maintenance-sweep events and the tracer the
	// sampled per-operation span timelines (handle.go's
	// traceStart/traceEnd). Atomic pointers because they attach while
	// application goroutines are already running operations.
	fr     atomic.Pointer[obs.FlightRecorder]
	tracer atomic.Pointer[obs.Tracer]
	// coordMu/coords track every cross-shard coordinator handed out by
	// Handle.Atomic, so the registry's ftx collector can aggregate their
	// per-coordinator snapshots into forest-wide series.
	coordMu sync.Mutex
	coords  []*ftx.Coordinator

	// wal is the attached write-ahead log (nil for a volatile forest):
	// every committed mutating transaction appends one record through it,
	// registered as a reliable post-commit hook so aborted attempts log
	// nothing. Set once by AttachWAL before concurrent use.
	wal *durable.Log
	// ckptThs are the checkpointer's per-shard STM threads (SnapshotShard),
	// lazily created and touched only by the single checkpoint driver.
	ckptThs []*stm.Thread
}

// AttachWAL connects the forest to a write-ahead log: from now on every
// committed mutating transaction — single-key updates, composed Update
// transactions, moves, and the per-shard effects of cross-shard Atomic
// commits — appends one durable record carrying its commit-clock position.
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
	snapChunkPairs = 1024 // pairs per SnapshotShard transaction, at most
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

// SnapshotShard implements durable.Source: shard si streamed through fn in
// ascending key order as a sequence of small consistent read-only
// transactions — each scans the next chunk of up to snapChunkPairs pairs
// from where the last one stopped — returning the minimum of the chunks'
// shard-clock positions (see durable.Source for why the minimum is the
// safe cut). Single-caller (the checkpoint driver).
func (f *Forest) SnapshotShard(si int, fn func(k, v uint64)) uint64 {
	sh := f.shards[si]
	th := f.ckptThread(si)
	cut := ^uint64(0)
	var (
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
		sh.m.RangeTx(tx, lo, ^uint64(0), collect)
		pos = tx.Snapshot()
	}
	for {
		th.AtomicRO(scan)
		size.committed()
		cut = min(cut, pos)
		for _, e := range chunk {
			fn(e.k, e.v)
		}
		if len(chunk) < limit || chunk[len(chunk)-1].k == ^uint64(0) {
			return cut
		}
		lo = chunk[len(chunk)-1].k + 1
	}
}

// ckptThread returns shard si's lazily created checkpointer STM thread
// (touched only by the single checkpoint driver).
func (f *Forest) ckptThread(si int) *stm.Thread {
	if f.ckptThs == nil {
		f.ckptThs = make([]*stm.Thread, len(f.shards))
	}
	if f.ckptThs[si] == nil {
		f.ckptThs[si] = f.shards[si].stm.NewThread()
	}
	return f.ckptThs[si]
}

// The forest is the durable layer's checkpoint source.
var _ durable.Source = (*Forest)(nil)

// Option configures New.
type Option func(*cfg)

type cfg struct {
	shards       int
	mode         stm.Mode
	cm           stm.ContentionManager
	maintenance  bool
	maintWorkers int // pool size (0 = default)
	yieldEvery   int
}

// WithShards sets the number of partitions (default 1; must be >= 1).
func WithShards(n int) Option { return func(c *cfg) { c.shards = n } }

// WithTMMode selects the TM algorithm of every shard's STM domain.
func WithTMMode(m stm.Mode) Option { return func(c *cfg) { c.mode = m } }

// WithContentionManager selects the abort→retry policy of every shard's STM
// domain (default stm.Backoff; nil is ignored).
func WithContentionManager(cm stm.ContentionManager) Option {
	return func(c *cfg) { c.cm = cm }
}

// WithoutMaintenance suppresses the maintenance worker pool; the caller
// drives maintenance manually via Quiesce.
func WithoutMaintenance() Option { return func(c *cfg) { c.maintenance = false } }

// WithMaintWorkers sizes the shared maintenance worker pool at n workers
// (default min(shards, GOMAXPROCS/2), at least 1). The pool runs the sweeps
// of all shards, so its size bounds the forest's total maintenance CPU
// regardless of the shard count.
func WithMaintWorkers(n int) Option {
	return func(c *cfg) {
		if n > 0 {
			c.maintWorkers = n
		}
	}
}

// defaultMaintWorkers sizes the pool when WithMaintWorkers is not given.
func defaultMaintWorkers(shards int) int {
	return max(1, min(shards, runtime.GOMAXPROCS(0)/2))
}

// WithYield enables the STM interleaving simulation on every shard
// (stm.WithYield).
func WithYield(n int) Option { return func(c *cfg) { c.yieldEvery = n } }

// New creates an empty forest of the given tree kind. Unless
// WithoutMaintenance is given, kinds with maintenance are serviced by a
// shared pool of maintenance workers started immediately (WithMaintWorkers
// sizes it); Close stops the pool.
func New(kind trees.Kind, opts ...Option) *Forest {
	c := cfg{shards: 1, mode: stm.CTL, maintenance: true}
	for _, o := range opts {
		o(&c)
	}
	if c.shards < 1 {
		panic(fmt.Sprintf("forest: shard count %d < 1", c.shards))
	}
	if c.maintWorkers == 0 {
		c.maintWorkers = defaultMaintWorkers(c.shards)
	}
	f := &Forest{kind: kind, shards: make([]*shard, c.shards), maint: c.maintenance}
	maintained := false
	now := time.Now().UnixNano()
	for i := range f.shards {
		s := stm.New(stm.WithMode(c.mode), stm.WithContentionManager(c.cm), stm.WithYield(c.yieldEvery))
		sh := &shard{stm: s, m: trees.New(kind, s)}
		if mt, ok := trees.MaintainedOf(sh.m); ok {
			sh.mt = mt
			sh.sweepGap.Store(int64(sweepGapMin))
			sh.nextSweep.Store(now)
			maintained = true
		}
		f.shards[i] = sh
	}
	if c.maintenance && maintained {
		f.maintWorkers = min(c.maintWorkers, c.shards)
		f.startPool()
	} else {
		f.maint = false
	}
	return f
}

// Kind reports the tree library backing every shard.
func (f *Forest) Kind() trees.Kind { return f.kind }

// Shards reports the number of partitions.
func (f *Forest) Shards() int { return len(f.shards) }

// Close stops the maintenance worker pool. The forest remains fully usable
// (readable and writable); only the structural upkeep stops. Closing an
// already-closed forest is a documented no-op, and Close is safe to call
// concurrently with Stats/ShardStats/MaintenanceStats — maintenance is
// guaranteed stopped once Close and any overlapping accessors return.
func (f *Forest) Close() {
	f.maintMu.Lock()
	defer f.maintMu.Unlock()
	f.maint = false
	if f.pool != nil {
		f.pool.stop()
		f.pool = nil
	}
}

// pauseMaintenance stops the maintenance worker pool and returns the
// function that restarts it. Per-thread STM counters are plain fields
// readable only while their owning goroutine is quiet, and the trees'
// maintenance surface is single-driver, so both the statistics accessors
// and Quiesce bracket themselves with this. The maintenance lock is held
// until the returned resume function runs, so a concurrent Close cannot
// interleave with the pause/resume bracket (and the resume can never undo
// a Close).
func (f *Forest) pauseMaintenance() func() {
	f.maintMu.Lock()
	if !f.maint || f.pool == nil {
		f.maintMu.Unlock()
		return func() {}
	}
	f.pool.stop()
	f.pool = nil
	return func() {
		defer f.maintMu.Unlock()
		f.startPool()
	}
}

// Quiesce runs maintenance sweeps on every shard until clean (up to
// maxPasses each). The worker pool is paused for the duration (the sweeps
// are single-driver).
func (f *Forest) Quiesce(maxPasses int) {
	defer f.pauseMaintenance()()
	for _, sh := range f.shards {
		trees.Quiesce(sh.m, maxPasses)
	}
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
	if len(f.shards) == 1 {
		return 0
	}
	return int(mix(k) % uint64(len(f.shards)))
}

// SameShard reports whether k1 and k2 are co-located, i.e. whether a
// composite transaction (Update, atomic Move) may span both keys.
func (f *Forest) SameShard(k1, k2 uint64) bool { return f.ShardOf(k1) == f.ShardOf(k2) }

// Stats returns the STM statistics summed over all shards. Running
// maintenance goroutines are paused while their counters are read; caller
// handles must be quiescent (as for stm.Thread.Stats).
func (f *Forest) Stats() stm.Stats {
	defer f.pauseMaintenance()()
	var t stm.Stats
	for _, sh := range f.shards {
		t.Add(sh.stm.TotalStats())
	}
	return t
}

// ShardStats returns each shard's own STM statistics, indexed by shard,
// under the same quiescence contract as Stats.
func (f *Forest) ShardStats() []stm.Stats {
	defer f.pauseMaintenance()()
	out := make([]stm.Stats, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.stm.TotalStats()
	}
	return out
}

// MaintenanceStats sums structural-activity counters over all shards
// (zero value for kinds without maintenance).
func (f *Forest) MaintenanceStats() sftree.Stats {
	var t sftree.Stats
	for _, sh := range f.shards {
		if sf, ok := sh.m.(interface{ Stats() sftree.Stats }); ok {
			t.Add(sf.Stats())
		}
	}
	return t
}

// Rotations sums structural rotations over shards whose kind exposes them.
func (f *Forest) Rotations() (uint64, bool) {
	var total uint64
	any := false
	for _, sh := range f.shards {
		if r, ok := trees.Rotations(sh.m); ok {
			total += r
			any = true
		}
	}
	return total, any
}
