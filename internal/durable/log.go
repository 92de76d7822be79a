// Package durable adds crash durability to the in-memory tree forest: a
// group-committed, checksummed write-ahead log fed by the STM's reliable
// post-commit hooks and by the cross-shard transaction coordinator, plus
// periodic consistent checkpoints built from per-shard snapshot scans, with
// log rotation and truncation once a checkpoint seals. Recovery loads the
// newest sealed checkpoint and replays the surviving WAL tail idempotently.
//
// # What is logged, and when
//
// The log is a redo log written after commit: a committed single-shard
// transaction appends one update record (its shard, its commit-clock
// position, and its absolute effects — puts and deletes), and a committed
// cross-shard transaction appends one atomic record carrying every
// participating shard's share, logged at finalize so the transaction's
// atomicity carries onto disk (a record is wholly present or wholly torn,
// never split). Records are framed with a length prefix and a CRC-32C, so a
// truncated or corrupted tail is detected and cleanly discarded.
//
// # Durability contract
//
// Group commit bounds the loss window: with Options.Sync every record is
// written and fsynced before the append returns (per-operation durability);
// otherwise appends only fill an in-memory buffer and a background
// committer writes and fsyncs it every GroupCommit interval — off the
// append lock, see Log — so a crash loses at most the operations of the
// last unsynced window. Because records are appended after publication, commit order and
// append order can differ under concurrency; recovery restores per-shard,
// per-key ordering among the surviving records by sorting them on their
// shard-clock positions. The contract is therefore: every operation whose
// record was synced (equivalently, every operation that returned, plus
// under group commit the synced part of the final window) is recovered
// exactly; operations still in flight at the crash — published in memory,
// record not yet on disk — are retained or lost independently of one
// another, so no cross-transaction ordering is promised within that final
// window (a later record can survive a tear that loses an earlier
// concurrent one; logging at the lock point instead would buy strict
// prefixes and is a ROADMAP item). Single-writer histories, and any
// history under Sync, recover as exact per-shard prefixes.
//
// # Checkpoints and recovery
//
// A checkpoint first rotates the log to a fresh segment, then scans every
// shard with a consistent read-only snapshot (recording the shard's
// commit-clock cut; the source may take it in chunks and report their
// minimum, see Source), writes the pairs to a temporary file and seals it
// by rename. Rotating first guarantees every record in the older segments
// is covered by the snapshot (its transaction published before the rotation,
// hence before any of the snapshot's clock draws), so the older segments and
// checkpoints are deleted once the seal lands. A crash anywhere in that
// window is safe: recovery picks the newest sealed checkpoint, replays only
// segments at or above its base, and skips any record position at or below
// the checkpoint's per-shard cut — stale files left by an interrupted
// truncation are ignored or re-deleted.
//
// # Incremental checkpoints
//
// Rewriting the whole store every checkpoint makes checkpoint cost grow
// with store size even when almost nothing changed. The log therefore
// tracks, per shard, the set of keys mutated since the last checkpoint —
// maintained at append time, under the same lock the records take, so the
// set is exactly the keys of the records in the segments a checkpoint
// covers. When the dirty set is small relative to the store, the
// checkpoint writes a delta generation instead of a full base: only the
// dirty keys, read under a consistent per-shard snapshot (puts for present
// keys, tombstones for absent ones), plus a manifest chaining the delta
// back through its ancestors to the last full base. Long chains are folded
// by compaction — after Options.CompactEvery deltas (or when the dirty
// fraction exceeds Options.DeltaMaxFrac) the next checkpoint is a fresh
// full base and the old chain is deleted. Once the dirty set outgrows what
// the next checkpoint could write as a delta it saturates: appends stop
// inserting keys, and that checkpoint writes a full base. A checkpoint
// with an empty dirty set is skipped outright, so an idle store costs no
// checkpoint I/O at all.
//
// Correctness does not depend on append timing: a record can reach the log
// after the delta that covers its window was cut (its committer was
// preempted between publication and append). Such a record's key is not in
// the delta, and recovery's skip rule is per key — a replayed record is
// skipped only when its position is at or below the cut of the newest
// chain generation that actually covered its key (the full base covers
// every key; a delta covers only its own entries) — so the late record is
// replayed rather than lost.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// Defaults for the zero Options value.
const (
	// DefaultGroupCommit is the background flush+fsync interval when
	// neither Sync nor an explicit interval is configured.
	DefaultGroupCommit = 2 * time.Millisecond
	// DefaultCheckpointEvery is the periodic-checkpoint interval when none
	// is configured.
	DefaultCheckpointEvery = time.Second
	// DefaultCompactEvery is the delta-chain length at which the next
	// checkpoint compacts to a fresh full base.
	DefaultCompactEvery = 8
	// DefaultDeltaMaxFrac is the dirty fraction (dirty keys over the last
	// full base's pairs) above which a checkpoint writes a full base
	// instead of a delta.
	DefaultDeltaMaxFrac = 0.25
	// DefaultMaxUnsynced is the backpressure bound on bytes appended but
	// not yet fsynced under group commit.
	DefaultMaxUnsynced = 1 << 20
	// defaultRecoveryAppliers caps the parallel recovery applier count when
	// none is configured (the effective count is min(shards, this)).
	defaultRecoveryAppliers = 8
)

// segMagic heads every WAL segment, followed by the shard count.
const segMagic = "SFWAL001"

// segHeaderLen is the segment header size (magic + u32 shard count).
const segHeaderLen = len(segMagic) + 4

// Options are the durability dials.
type Options struct {
	// Sync fsyncs the log before every append returns: per-operation
	// durability, at per-operation fsync cost. It overrides GroupCommit.
	Sync bool
	// GroupCommit is the background committer's flush+fsync interval.
	// 0 selects DefaultGroupCommit; a negative value disables the
	// committer entirely (records still reach the OS on every append, but
	// are never explicitly fsynced — the crash window is the OS's).
	GroupCommit time.Duration
	// CheckpointEvery is the periodic-checkpoint interval used by
	// StartCheckpoints. 0 selects DefaultCheckpointEvery; a negative value
	// disables periodic checkpoints (manual Checkpoint calls still work).
	CheckpointEvery time.Duration
	// CompactEvery bounds the delta chain: after this many delta
	// generations the next checkpoint writes a fresh full base and deletes
	// the old chain. 0 selects DefaultCompactEvery; a negative value
	// disables incremental checkpoints entirely (every checkpoint is a
	// full base, the PR 5 behavior).
	CompactEvery int
	// DeltaMaxFrac is the dirty fraction above which a checkpoint writes a
	// full base rather than a delta: when more than this fraction of the
	// last full base's pairs mutated, a delta would not pay for itself.
	// 0 selects DefaultDeltaMaxFrac.
	DeltaMaxFrac float64
	// MaxUnsynced bounds the bytes appended but not yet fsynced under
	// group commit: an append that would exceed it flushes and fsyncs
	// inline (bounded blocking — backpressure instead of an unbounded
	// loss window when writers outrun the committer). 0 selects
	// DefaultMaxUnsynced; a negative value disables the bound.
	MaxUnsynced int
	// RecoveryAppliers is the number of parallel applier goroutines
	// recovery partitions its replay across. 0 selects min(shards,
	// defaultRecoveryAppliers); 1 forces the serial path.
	RecoveryAppliers int
}

func (o Options) groupCommit() time.Duration {
	if o.Sync || o.GroupCommit < 0 {
		return 0
	}
	if o.GroupCommit == 0 {
		return DefaultGroupCommit
	}
	return o.GroupCommit
}

func (o Options) checkpointEvery() time.Duration {
	if o.CheckpointEvery < 0 {
		return 0
	}
	if o.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return o.CheckpointEvery
}

// deltas reports whether incremental checkpoints are enabled.
func (o Options) deltas() bool { return o.CompactEvery >= 0 }

func (o Options) compactEvery() int {
	if o.CompactEvery == 0 {
		return DefaultCompactEvery
	}
	return o.CompactEvery
}

func (o Options) deltaMaxFrac() float64 {
	if o.DeltaMaxFrac <= 0 {
		return DefaultDeltaMaxFrac
	}
	return o.DeltaMaxFrac
}

func (o Options) maxUnsynced() int {
	if o.MaxUnsynced == 0 {
		return DefaultMaxUnsynced
	}
	if o.MaxUnsynced < 0 {
		return int(^uint(0) >> 1)
	}
	return o.MaxUnsynced
}

func (o Options) recoveryAppliers(shards int) int {
	n := o.RecoveryAppliers
	if n <= 0 {
		n = min(shards, defaultRecoveryAppliers)
	}
	return max(1, n)
}

// Source is the in-memory store a Log checkpoints: per-shard snapshots cut
// at a commit-clock position. forest.Forest implements it. SnapshotShard is
// called by one checkpointer at a time (never concurrently with itself).
//
// A snapshot need not be one transaction. A source may stream a shard as a
// sequence of chunks — disjoint key ranges that together cover the key
// space, each read consistently at its own position c_j, every one begun
// after the call — and return cut = min c_j (forest.Forest does, because a
// whole-shard transaction under write load restarts without end). That is
// safe for the three things a cut is used for:
//
//   - Truncation. The log rotates before it calls SnapshotShard, and a
//     record is appended after its transaction published, so every record
//     in the segments below the rotation has a position at or below every
//     chunk's c_j: each chunk already holds its effect, and those segments
//     can go once the checkpoint seals — whatever the cut.
//   - Replay. Recovery loads the snapshot, then applies the surviving
//     records with position > cut in position order. A chunk read at
//     c_j >= cut holds each of its keys as of c_j, so records in (cut, c_j]
//     are applied over a state that already includes them. Effects are
//     absolute puts and deletes, so replaying a key's records in order
//     ends at its last record's effect however many of them the starting
//     state had already absorbed: re-applying (cut, c_j] is idempotent.
//   - Skipping. A record appended late (its committer was preempted
//     between publication and append) with position <= cut is at or below
//     every c_j, so every chunk holds it and skipping it loses nothing.
//
// The argument asks of a chunk only that it is a consistent read at the
// position it reports, not how the source came by that: forest.Forest reads
// its chunks in read-only transactions that at first keep no read set
// (stm.Thread.AtomicRO), whose position is the snapshot they began with —
// everything they return is the state at it — and, once retried, the
// snapshot their last extension validated, as before. Nothing here changes.
//
// The durability contract is unchanged by chunking, neither stronger nor
// weaker: an operation that returned before the last sync is recovered
// exactly; operations in flight at the crash are retained or lost
// independently of one another.
type Source interface {
	// Shards reports the number of partitions.
	Shards() int
	// SnapshotShard streams a snapshot of shard si through fn — one
	// consistent read, or consistent chunks as described above — and returns
	// the shard-clock position it was cut at: every transaction that
	// published at or below it is included; a later one may or may not be,
	// and is replayed from the log either way.
	SnapshotShard(si int, fn func(k, v uint64)) uint64
}

// DeltaSource is an optional Source extension for incremental checkpoints:
// a consistent read of exactly the given keys of one shard, so a delta's
// read cost is proportional to the churn rather than the store size.
// Sources without it still get delta checkpoints — the log falls back to a
// full SnapshotShard scan filtered to the dirty set (delta-sized writes,
// store-sized reads). forest.Forest implements it.
type DeltaSource interface {
	Source
	// SnapshotShardKeys reads the given keys of shard si consistently — in
	// one transaction, or in runs with the minimum of their positions as
	// the cut, by the argument on Source — calling fn(k, v, true) for each
	// present key and fn(k, 0, false) for each absent one (in the order
	// given), and returns the shard-clock position the read was cut at.
	SnapshotShardKeys(si int, keys []uint64, fn func(k, v uint64, ok bool)) uint64
}

// Stats counts a Log's activity. All fields are monotonically increasing.
type Stats struct {
	Records            uint64  // records appended (update + atomic)
	AtomicRecords      uint64  // the cross-shard subset of Records
	Bytes              uint64  // framed bytes appended
	Flushes            uint64  // append-buffer writes to the live segment
	Syncs              uint64  // fsyncs of the live segment
	Stalls             uint64  // appends that hit the MaxUnsynced bound and fsynced inline
	Dropped            uint64  // records not logged: oversize payload, or appended while wedged on an I/O error
	Checkpoints        uint64  // checkpoints sealed (full bases + deltas)
	DeltaCheckpoints   uint64  // the incremental subset of Checkpoints
	SkippedCheckpoints uint64  // checkpoints skipped because nothing was dirty
	CheckpointPairs    uint64  // pairs written across all checkpoints (delta entries included)
	CheckpointBytes    uint64  // bytes written across checkpoint, delta, and manifest files
	CheckpointNanos    uint64  // wall time spent checkpointing
	DirtyFracSum       float64 // sum over delta checkpoints of dirtyKeys/basePairs (mean = /DeltaCheckpoints)
	Rotations          uint64  // segment rotations
	FilesRemoved       uint64  // obsolete segments, checkpoints, and manifests deleted
}

// errClosed is returned by operations on a closed Log.
var errClosed = errors.New("durable: log is closed")

// pendSpan is one traced append awaiting its fsync (see Log.pend): the
// sampled operation's trace id, the append instant, and the record's framed
// size and shard (A/B of the eventual SpanWALAppend; shard is -1 for a
// cross-shard atomic record).
type pendSpan struct {
	id    uint64
	at    int64
	shard int64
	bytes int64
}

// Log is an open write-ahead log: one live segment receiving appends, plus
// the checkpoint machinery. Appends are safe for concurrent use by any
// number of committing threads; Checkpoint/StartCheckpoints drive one
// checkpointer at a time. Create one with Open, which also performs
// recovery.
//
// Group commit is double-buffered. Appenders frame their records into an
// in-memory buffer under mu — encode, checksum, dirty-mark, nothing else —
// and whoever makes records durable (the committer, Sync, a Sync-mode or
// stalled appender, rotation, Close) takes ioMu, swaps the buffer out under
// mu, and writes and fsyncs it with mu released. No append ever waits for a
// disk unless the durability dial says it must (Sync, or the MaxUnsynced
// bound). Lock order: ioMu before mu.
type Log struct {
	dir    string
	o      Options
	shards int

	// mu guards everything an append touches: the fill buffer, the segment
	// and generation counters, the dirty-key sets, the counters and the
	// error/wedge state. It is never held across file I/O.
	mu       sync.Mutex
	buf      []byte // framed records awaiting the next flush (the fill buffer)
	seg      uint64 // live segment index: where the fill buffer is destined
	nextGen  uint64 // next checkpoint generation
	closed   bool
	err      error      // first write error, sticky (surfaced by Err)
	wedged   bool       // an I/O error poisoned the live segment; appends drop until the next rotation
	unsynced int        // framed bytes appended but not yet fsynced, in-flight flushes included (backpressure)
	live     []ShardOps // LogAtomicT's non-empty-parts scratch
	st       Stats

	// ioMu serializes all file I/O on the live segment — flushes, fsyncs,
	// rotation, Close — and guards the file, its written-but-unsynced flag
	// and the spare buffer a flush swaps in. A flusher holds it from the
	// buffer swap until its fsync has returned, so a waiter that then finds
	// the buffer empty and the file clean knows its record is durable: the
	// leader/follower of per-operation Sync falls out of the lock.
	ioMu      sync.Mutex
	f         *os.File
	fileDirty bool       // bytes written to f since its last fsync
	spare     []byte     // the drained buffer, swapped in at the next flush
	ioPend    []pendSpan // spans taken at a swap, closed after that flush's fsync
	// fsync is (*os.File).Sync, a field so tests can hold a sync open.
	fsync func(*os.File) error

	// Observability hooks, all optional (nil when the obs layer is not
	// wired): the flight recorder receives checkpoint/stall/drop/rotation
	// events, the histograms fsync latency and checkpoint duration. Set
	// under mu (SetFlightRecorder/RegisterObs), read under mu.
	fr    *obs.FlightRecorder
	syncH *obs.Histogram
	ckptH *obs.Histogram

	// tracer receives one SpanWALAppend per traced record, stretching from
	// the append to the fsync that made it durable. pend is the bounded
	// buffer of traced appends awaiting that fsync, taken by the flush whose
	// fsync covers them; overflow or a wedged segment drops the span, never
	// the record. Set under mu (SetTracer), read under mu.
	tracer *obs.Tracer
	pend   [64]pendSpan
	pendN  int

	// dirtyKeys is the per-shard set of keys mutated since the last
	// checkpoint capture, maintained at append time under mu — the same
	// critical section the records take, so a checkpoint's captured set is
	// exactly the keys of the records in the segments it covers. Nil when
	// incremental checkpoints are disabled. dirtyN counts its keys across
	// shards. Once dirtyN exceeds dirtyCap — the most dirty keys the next
	// checkpoint may still write as a delta (deltaBudget, published by the
	// checkpointer) — the set is saturated: the next checkpoint must be a
	// full base, which covers every key, so appends stop inserting until
	// the next capture.
	dirtyKeys      []map[uint64]struct{}
	dirtyN         int
	dirtyCap       int
	dirtySaturated bool

	// ckptMu serializes whole checkpoints (the periodic loop and manual
	// Checkpoint calls). It also guards the chain fields below, which only
	// the single checkpoint driver touches.
	ckptMu         sync.Mutex
	chain          []manifestEntry // current generation chain, full base first
	chainFullGen   uint64          // generation of the chain's full base
	chainFullPairs int             // pairs in the chain's full base (store-size estimate)

	committerStop chan struct{}
	committerDone chan struct{}
	ckptStop      chan struct{}
	ckptDone      chan struct{}
}

// logBufSize is the initial capacity of each of the two append buffers.
const logBufSize = 1 << 16

// Open recovers the directory's durable state and opens a fresh log
// generation for appends. shards must match the store the log feeds (and
// the value any prior state in dir was written with). The returned Recovery
// holds the recovered key/value state; the caller loads it into the store,
// attaches the log, and should then seal a fresh checkpoint (repro.Open
// does) so the replayed history is rebased onto the new process's clocks.
func Open(dir string, shards int, o Options) (*Log, *Recovery, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("durable: shard count %d < 1", shards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, maxSeg, maxGen, err := recoverDir(dir, shards, o.recoveryAppliers(shards))
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, o: o, shards: shards, seg: maxSeg + 1, nextGen: maxGen + 1,
		buf: make([]byte, 0, logBufSize), spare: make([]byte, 0, logBufSize),
		fsync: (*os.File).Sync}
	if o.deltas() {
		l.dirtyKeys = freshDirty(shards)
		l.dirtyCap = l.deltaBudget() // no chain yet: the first checkpoint is full
	}
	if err := l.openSegment(l.seg); err != nil {
		return nil, nil, err
	}
	if d := o.groupCommit(); d > 0 {
		l.committerStop = make(chan struct{})
		l.committerDone = make(chan struct{})
		go l.committer(d)
	}
	return l, rec, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Shards reports the shard count the log was opened with.
func (l *Log) Shards() int { return l.shards }

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// Err returns the first write error the log encountered, if any (sticky —
// later errors do not replace it). After an I/O error the log wedges:
// appends to the poisoned segment are dropped and counted in
// Stats.Dropped, until the next successful rotation opens a fresh segment.
// With incremental checkpoints enabled the dropped records' keys stay in
// the dirty set (or the set is saturated and the next checkpoint is a full
// base), so the next checkpoint re-captures their current values and the
// loss window closes there. The in-memory store stays usable throughout;
// the caller decides whether to fail over.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// LiveSegment returns the path of the segment currently receiving appends
// (instrumentation and crash tests).
func (l *Log) LiveSegment() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return segmentName(l.dir, l.seg)
}

// segmentName returns the path of segment index i.
func segmentName(dir string, i uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", i))
}

// openSegment creates and heads segment i as the live file. Caller holds
// ioMu (Open runs before the log is shared). On failure no file is live.
func (l *Log) openSegment(i uint64) error {
	l.f = nil
	f, err := os.OpenFile(segmentName(l.dir, i), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(l.shards))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.fileDirty = true
	return nil
}

// flushMode is what an append owes the disk once mu is released.
type flushMode uint8

const (
	flushNone  flushMode = iota // the committer will get to it
	flushWrite                  // no committer: hand the record to the OS now
	flushSync                   // Options.Sync: fsync before returning
	flushStall                  // crossed MaxUnsynced: fsync inline, counted
)

// LogUpdate appends one committed single-shard transaction: its shard, the
// commit-clock position its publication carried, and its effects. The ops
// slice is encoded before LogUpdate returns and may be reused by the
// caller. Empty transactions append nothing.
func (l *Log) LogUpdate(shard int, seq uint64, ops []Op) {
	l.LogUpdateT(shard, seq, ops, 0)
}

// LogUpdateT is LogUpdate carrying a sampled operation's trace id: when
// non-zero (and a tracer is attached), the record's eventual fsync closes a
// SpanWALAppend under that id, covering append→durability. Zero means
// untraced and is exactly LogUpdate.
func (l *Log) LogUpdateT(shard int, seq uint64, ops []Op, traceID uint64) {
	if len(ops) == 0 {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.markDirtyLocked(shard, ops)
	buf, start := beginFrame(l.buf)
	l.buf = encodeUpdate(buf, shard, seq, ops)
	mode, pre := l.endRecord(start, false, traceID, int64(shard))
	l.mu.Unlock()
	l.afterAppend(mode, pre)
}

// LogAtomic appends one committed cross-shard transaction as a single
// record: each participating shard's effects with that shard's lock-point
// clock position, atomically present or absent on disk. Parts with no ops
// are skipped; an all-empty record appends nothing.
func (l *Log) LogAtomic(parts []ShardOps) {
	l.LogAtomicT(parts, 0)
}

// LogAtomicT is LogAtomic carrying a sampled transaction's trace id (see
// LogUpdateT). The span's shard field is -1: the record spans shards.
func (l *Log) LogAtomicT(parts []ShardOps, traceID uint64) {
	empty := true
	for i := range parts {
		if len(parts[i].Ops) > 0 {
			empty = false
			break
		}
	}
	if empty {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	live := l.live[:0]
	for i := range parts {
		if len(parts[i].Ops) > 0 {
			live = append(live, parts[i])
		}
	}
	l.live = live
	for _, p := range live {
		l.markDirtyLocked(p.Shard, p.Ops)
	}
	buf, start := beginFrame(l.buf)
	l.buf = encodeAtomic(buf, live)
	mode, pre := l.endRecord(start, true, traceID, -1)
	l.mu.Unlock()
	l.afterAppend(mode, pre)
}

// markDirtyLocked adds the keys of shard's ops to the dirty set, unless
// incremental checkpoints are off or the set is saturated. Caller holds mu.
func (l *Log) markDirtyLocked(shard int, ops []Op) {
	if l.dirtyKeys == nil || l.dirtySaturated {
		return
	}
	d := l.dirtyKeys[shard]
	n0 := len(d)
	for i := range ops {
		d[ops[i].Key] = struct{}{}
	}
	l.dirtyN += len(d) - n0
	if l.dirtyN > l.dirtyCap {
		l.dirtySaturated = true
	}
}

// deltaBudget returns the most dirty keys the next checkpoint may capture
// and still write as a delta, or -1 when it must be a full base whatever
// the count: no chain yet, or a chain due for compaction. Caller holds
// ckptMu.
func (l *Log) deltaBudget() int {
	n := len(l.chain)
	if n == 0 || n-1 >= l.o.compactEvery() || l.chainFullPairs == 0 {
		return -1
	}
	return int(l.o.deltaMaxFrac() * float64(l.chainFullPairs))
}

// restoreDirtyLocked merges a captured dirty set back into l.dirtyKeys
// after a failed checkpoint attempt, so the mutated keys stay covered by
// the next generation instead of silently falling out of the chain (their
// records live only in segments a later successful delta would let
// removeObsolete delete). Union, not assignment: appends since the swap
// may have dirtied the fresh set. A saturated capture carries its
// saturation back instead — its set is incomplete, so only a full base
// covers it. The chain did not change, so its cap is republished (the next
// append saturates the set if the union is already past it). Caller holds
// ckptMu and mu.
func (l *Log) restoreDirtyLocked(captured []map[uint64]struct{}, saturated bool) {
	if captured == nil || l.dirtyKeys == nil {
		return
	}
	l.dirtyCap = l.deltaBudget()
	if saturated {
		l.dirtySaturated = true
		return
	}
	for si, m := range captured {
		d := l.dirtyKeys[si]
		n0 := len(d)
		for k := range m {
			d[k] = struct{}{}
		}
		l.dirtyN += len(d) - n0
	}
}

// freshDirty allocates one empty dirty-key set per shard.
func freshDirty(shards int) []map[uint64]struct{} {
	d := make([]map[uint64]struct{}, shards)
	for i := range d {
		d[i] = make(map[uint64]struct{})
	}
	return d
}

// endRecord seals the record encoded behind the frame header at start
// (beginFrame) or takes it back out of the buffer when it cannot be logged, and reports what the append owes the disk (pre is the unsynced
// byte count behind a flushStall). A non-zero traceID enqueues a pending
// SpanWALAppend closed by the record's fsync (shard is the span's A field).
// Caller holds mu.
func (l *Log) endRecord(start int, atomic bool, traceID uint64, shard int64) (mode flushMode, pre int) {
	payload := l.buf[start+frameOverhead:]
	if l.wedged {
		// An earlier I/O error poisoned this segment; writing more into it
		// cannot produce a recoverable prefix. Count the drop and wait for
		// the next rotation to try a fresh segment.
		l.buf = l.buf[:start]
		l.st.Dropped++
		l.fr.Record(obs.EvWALDrop, 0, int64(len(payload)), 0)
		return flushNone, 0
	}
	if len(payload) > maxPayload {
		// Recovery rejects frames over maxPayload as corruption and drops
		// everything after them, so writing one would poison the whole log
		// tail. A transaction whose write set encodes past 16MB (~1M ops)
		// is far outside this system's envelope; surface it as the sticky
		// error instead of appending. Only this record is dropped — the
		// segment stays healthy.
		l.buf = l.buf[:start]
		l.st.Dropped++
		l.fr.Record(obs.EvWALDrop, 0, int64(len(payload)), 0)
		l.setErrLocked(fmt.Errorf("durable: record payload %d bytes exceeds the %d-byte bound; transaction not logged", len(payload), maxPayload))
		return flushNone, 0
	}
	endFrame(l.buf, start)
	framed := len(l.buf) - start
	l.st.Records++
	if atomic {
		l.st.AtomicRecords++
	}
	l.st.Bytes += uint64(framed)
	l.unsynced += framed
	if traceID != 0 && l.tracer != nil && l.pendN < len(l.pend) {
		l.pend[l.pendN] = pendSpan{id: traceID, at: time.Now().UnixNano(),
			shard: shard, bytes: int64(framed)}
		l.pendN++
	}
	switch {
	case l.o.Sync:
		return flushSync, 0
	case l.unsynced > l.o.maxUnsynced():
		// Backpressure: writers outran the group committer past the bound.
		// Blocking this append for one flush+fsync keeps the loss window
		// (and the committer's queue) bounded instead of letting it grow
		// with the write rate.
		l.st.Stalls++
		return flushStall, l.unsynced
	case l.o.groupCommit() == 0:
		// No committer: hand the record to the OS immediately so the loss
		// window is the OS cache, not this process's buffer.
		return flushWrite, 0
	}
	return flushNone, 0
}

// afterAppend pays what endRecord said the append owes, with mu released.
func (l *Log) afterAppend(mode flushMode, pre int) {
	if mode == flushNone {
		return
	}
	t0 := time.Now()
	l.ioMu.Lock()
	l.flushIO(mode != flushWrite)
	l.ioMu.Unlock()
	if mode == flushStall {
		l.mu.Lock()
		fr := l.fr
		l.mu.Unlock()
		fr.Record(obs.EvWALStall, time.Since(t0), int64(pre), 0)
	}
}

// setErrLocked records the first write error. Caller holds mu.
func (l *Log) setErrLocked(err error) {
	if l.err == nil {
		l.err = err
	}
}

// flushIO drains the fill buffer into the live segment and, with sync set,
// fsyncs it. Caller holds ioMu and not mu. A sync that finds the buffer
// empty and the file clean does nothing: whoever held ioMu before made
// everything durable.
func (l *Log) flushIO(sync bool) {
	l.mu.Lock()
	out, cover, ok := l.swapLocked(sync)
	l.mu.Unlock()
	if ok {
		l.writeOut(out, cover, sync)
	}
}

// swapLocked takes the fill buffer for writing and leaves the spare in its
// place, so appends carry on into the other buffer while the caller does
// the I/O. cover is the unsynced byte count a successful fsync of out will
// have made durable: everything appended so far is in the file or in out.
// With sync set the pending trace spans move to ioPend for that fsync to
// close. ok is false when there is nothing to write to — no live file, or a
// wedged one: what sits in the buffer then was appended between a failed
// flush and its verdict, behind a write of unknown outcome, and is
// discarded like the rest of that flush. Caller holds ioMu and mu.
func (l *Log) swapLocked(sync bool) (out []byte, cover int, ok bool) {
	if l.f == nil || l.wedged {
		l.buf = l.buf[:0]
		l.unsynced = 0
		l.pendN = 0
		return nil, 0, false
	}
	out = l.buf
	l.buf = l.spare[:0]
	if sync {
		l.ioPend = append(l.ioPend[:0], l.pend[:l.pendN]...)
		l.pendN = 0
	}
	return out, l.unsynced, true
}

// writeOut writes a swapped-out buffer to the live segment and, with sync
// set, fsyncs it, then settles the accounts under mu. Caller holds ioMu and
// not mu. Write and fsync failures wedge the segment (post-failure write
// state is unknown); the next rotation un-wedges onto a fresh file.
func (l *Log) writeOut(out []byte, cover int, sync bool) {
	var err error
	wrote, synced := false, false
	var syncDur time.Duration
	if len(out) > 0 {
		if _, err = l.f.Write(out); err == nil {
			wrote, l.fileDirty = true, true
		}
	}
	l.spare = out[:0]
	if err == nil && sync && l.fileDirty {
		t0 := time.Now()
		if err = l.fsync(l.f); err == nil {
			synced, l.fileDirty = true, false
			syncDur = time.Since(t0)
		}
	}

	l.mu.Lock()
	if err != nil {
		l.setErrLocked(err)
		l.wedged = true
		l.pendN = 0 // durability unknown: drop the pending spans
		l.mu.Unlock()
		l.ioPend = l.ioPend[:0]
		return
	}
	if wrote {
		l.st.Flushes++
	}
	if synced {
		l.st.Syncs++
		if l.syncH != nil {
			l.syncH.Record(uint64(syncDur))
		}
	}
	if sync {
		l.unsynced -= cover
	}
	tracer := l.tracer
	l.mu.Unlock()
	if len(l.ioPend) > 0 {
		// Every record pending at the swap is now durable: close its
		// append→fsync span. Under Sync this fires inline per append; under
		// group commit a whole window's traced records share this fsync's
		// end instant.
		now := time.Now().UnixNano()
		for i := range l.ioPend {
			p := &l.ioPend[i]
			tracer.Record(p.id, obs.SpanWALAppend, obs.OpNone, p.at, now, p.shard, p.bytes)
		}
		l.ioPend = l.ioPend[:0]
	}
}

// Sync flushes and fsyncs the live segment (the group committer's tick,
// callable directly for an explicit durability point). It returns the
// log's sticky error state.
func (l *Log) Sync() error {
	l.ioMu.Lock()
	l.flushIO(true)
	l.ioMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	return l.err
}

// committer is the group-commit loop.
func (l *Log) committer(d time.Duration) {
	defer close(l.committerDone)
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-l.committerStop:
			return
		case <-t.C:
			l.Sync()
		}
	}
}

// Checkpoint seals one consistent checkpoint of src and truncates the log
// behind it: rotate to a fresh segment, snapshot (all pairs for a full
// base, just the dirty keys for a delta), write and seal the checkpoint
// and its manifest, then delete the now-covered older segments and
// superseded chain files. Concurrent appends proceed throughout (into the
// fresh segment during the snapshot). Checkpoint calls serialize with each
// other and with the periodic loop. When nothing was appended since the
// previous checkpoint, the call is a no-op (counted in
// Stats.SkippedCheckpoints) — an idle store costs no checkpoint I/O.
func (l *Log) Checkpoint(src Source) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	return l.checkpoint(src, true)
}

// checkpoint is Checkpoint with the truncation step separable, so crash
// tests can reproduce the "sealed but not yet truncated" window. Caller
// holds ckptMu.
func (l *Log) checkpoint(src Source, truncate bool) error {
	if src.Shards() != l.shards {
		return fmt.Errorf("durable: source has %d shards, log %d", src.Shards(), l.shards)
	}
	start := time.Now()
	deltas := l.o.deltas()

	// Rotate first: every record already in the old segments belongs to a
	// transaction that published before the snapshot below draws its clock
	// positions, so the snapshot covers the old segments entirely. The
	// dirty capture, the buffer swap and the segment/generation assignment
	// happen in one mu critical section: a record is either in the swapped
	// buffer (old segment, key in the captured set) or in the next one (new
	// segment, key in the fresh set), never in the old segment with its key
	// only in the fresh set — that record would be deleted with the segment
	// and lost. The file work that follows needs ioMu alone, so appends
	// fill the next buffer while the old segment is fsynced and closed and
	// the new one created.
	l.ioMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.ioMu.Unlock()
		return errClosed
	}
	dirtyCount, saturated := l.dirtyN, l.dirtySaturated
	if deltas && dirtyCount == 0 && !saturated && len(l.chain) > 0 && truncate {
		// Nothing appended since the last capture: the chain tip plus the
		// (empty) live tail already describe the store exactly.
		l.st.SkippedCheckpoints++
		l.mu.Unlock()
		l.ioMu.Unlock()
		return nil
	}
	chainLen := len(l.chain)
	wantDelta := deltas && !saturated && dirtyCount <= l.deltaBudget()
	var captured []map[uint64]struct{}
	if deltas {
		captured = l.dirtyKeys
		l.dirtyKeys = freshDirty(l.shards)
		l.dirtyN, l.dirtySaturated = 0, false
		// The fresh set feeds the chain this checkpoint is about to write,
		// whose budget is not known until it seals: no cap until then.
		l.dirtyCap = math.MaxInt
	}
	out, cover, ok := l.swapLocked(true)
	gen := l.nextGen
	l.nextGen++
	base := l.seg + 1
	l.seg = base
	l.mu.Unlock()

	if ok {
		l.writeOut(out, cover, true)
	}
	var closeErr error
	if l.f != nil {
		closeErr = l.f.Close()
	}
	openErr := l.openSegment(base)
	l.mu.Lock()
	if closeErr != nil {
		l.setErrLocked(closeErr)
	}
	if openErr != nil {
		// No live file: appends drop until the next rotation tries again.
		l.setErrLocked(openErr)
		l.wedged = true
		l.restoreDirtyLocked(captured, saturated)
		l.mu.Unlock()
		l.ioMu.Unlock()
		return openErr
	}
	l.wedged = false // fresh segment: past I/O errors stay in Err only
	l.st.Rotations++
	l.fr.Record(obs.EvWALRotate, 0, int64(base), 0)
	l.mu.Unlock()
	l.ioMu.Unlock()

	var err error
	var fileBytes, pairCount int
	if wantDelta {
		fileBytes, pairCount, err = l.writeDeltaGeneration(src, gen, base, captured)
	} else {
		fileBytes, pairCount, err = l.writeFullGeneration(src, gen, base)
	}
	if err != nil {
		l.mu.Lock()
		l.setErrLocked(err)
		l.restoreDirtyLocked(captured, saturated)
		l.mu.Unlock()
		return err
	}
	removed := 0
	if truncate {
		removed = removeObsolete(l.dir, base, l.chainFullGen, gen)
	}

	l.mu.Lock()
	if deltas {
		l.dirtyCap = l.deltaBudget()
	}
	l.st.Checkpoints++
	if wantDelta {
		l.st.DeltaCheckpoints++
		l.st.DirtyFracSum += float64(dirtyCount) / float64(l.chainFullPairs)
	}
	l.st.CheckpointPairs += uint64(pairCount)
	l.st.CheckpointBytes += uint64(fileBytes)
	dur := time.Since(start)
	l.st.CheckpointNanos += uint64(dur.Nanoseconds())
	l.st.FilesRemoved += uint64(removed)
	if l.ckptH != nil {
		l.ckptH.Record(uint64(dur.Nanoseconds()))
	}
	if l.fr != nil {
		kind := obs.EvCheckpointFull
		if wantDelta {
			kind = obs.EvCheckpointDelta
		} else if deltas && chainLen > 1 {
			// A full base superseding a multi-entry delta chain is the
			// compaction case: the chain's history collapses into one file.
			kind = obs.EvCompaction
		}
		l.fr.Record(kind, dur, int64(fileBytes), int64(pairCount))
	}
	l.mu.Unlock()
	return nil
}

// writeFullGeneration snapshots every shard in full and seals a full base
// plus its one-entry manifest, resetting the chain. Caller holds ckptMu.
func (l *Log) writeFullGeneration(src Source, gen, base uint64) (bytes, pairs int, err error) {
	cuts := make([]uint64, l.shards)
	// The previous base's pair count (plus slack for growth) saves the
	// doubling copies of a store-sized slice.
	kvs := make([]kvPair, 0, l.chainFullPairs+l.chainFullPairs/8)
	for si := 0; si < l.shards; si++ {
		cuts[si] = src.SnapshotShard(si, func(k, v uint64) {
			kvs = append(kvs, kvPair{k: k, v: v})
		})
	}
	n, err := writeCheckpoint(l.dir, l.shards, gen, base, cuts, kvs)
	if err != nil {
		return 0, 0, err
	}
	chain := []manifestEntry{{gen: gen}}
	mb := encodeManifest(manifest{shards: l.shards, gen: gen, baseSeg: base, chain: chain})
	if err := sealFile(l.dir, manifestName(l.dir, gen), mb); err != nil {
		return 0, 0, err
	}
	l.chain = chain
	l.chainFullGen = gen
	l.chainFullPairs = len(kvs)
	return n + len(mb), len(kvs), nil
}

// writeDeltaGeneration snapshots just the captured dirty keys per shard
// and seals a delta generation plus the manifest extending the chain with
// it. Caller holds ckptMu; captured is the dirty set swapped out at the
// rotation. Sources implementing DeltaSource are read per key (cost
// proportional to churn); plain Sources fall back to a filtered full scan
// (delta-sized writes, store-sized reads). Dirty keys absent at the
// snapshot become tombstones.
func (l *Log) writeDeltaGeneration(src Source, gen, base uint64, captured []map[uint64]struct{}) (bytes, pairs int, err error) {
	cuts := make([]uint64, l.shards)
	var groups []deltaGroup
	total := 0
	ds, perKey := src.(DeltaSource)
	for si := 0; si < l.shards; si++ {
		if len(captured[si]) == 0 {
			continue // untouched shard: no snapshot, no group, cut stays 0
		}
		keys := make([]uint64, 0, len(captured[si]))
		for k := range captured[si] {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		entries := make([]deltaEntry, 0, len(keys))
		if perKey {
			cuts[si] = ds.SnapshotShardKeys(si, keys, func(k, v uint64, ok bool) {
				if ok {
					entries = append(entries, deltaEntry{k: k, v: v})
				} else {
					entries = append(entries, deltaEntry{k: k, del: true})
				}
			})
		} else {
			vals := make(map[uint64]uint64, len(keys))
			cuts[si] = src.SnapshotShard(si, func(k, v uint64) {
				if _, dirty := captured[si][k]; dirty {
					vals[k] = v
				}
			})
			for _, k := range keys {
				if v, ok := vals[k]; ok {
					entries = append(entries, deltaEntry{k: k, v: v})
				} else {
					entries = append(entries, deltaEntry{k: k, del: true})
				}
			}
		}
		groups = append(groups, deltaGroup{shard: si, entries: entries})
		total += len(entries)
	}
	parent := l.chain[len(l.chain)-1].gen
	db := encodeDelta(deltaFile{shards: l.shards, gen: gen, parentGen: parent, baseSeg: base, cuts: cuts, groups: groups})
	if err := sealFile(l.dir, deltaName(l.dir, gen), db); err != nil {
		return 0, 0, err
	}
	chain := make([]manifestEntry, 0, len(l.chain)+1)
	chain = append(chain, l.chain...)
	chain = append(chain, manifestEntry{gen: gen, delta: true})
	mb := encodeManifest(manifest{shards: l.shards, gen: gen, baseSeg: base, chain: chain})
	if err := sealFile(l.dir, manifestName(l.dir, gen), mb); err != nil {
		return 0, 0, err
	}
	l.chain = chain
	return len(db) + len(mb), total, nil
}

// removeObsolete deletes segments below base, checkpoint and delta files
// below the current chain's full base keepGen, and manifests below gen,
// returning how many files went away. Failures are ignored — recovery
// tolerates stale files, and the next checkpoint retries.
func removeObsolete(dir string, base, keepGen, gen uint64) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		drop := false
		if i, ok := parseIndexed(name, "wal-", ".log"); ok && i < base {
			drop = true
		} else if g, ok := parseIndexed(name, "checkpoint-", ".ckpt"); ok && g < keepGen {
			drop = true
		} else if g, ok := parseIndexed(name, "delta-", ".ckpt"); ok && g < keepGen {
			drop = true
		} else if g, ok := parseIndexed(name, "manifest-", ".mf"); ok && g < gen {
			drop = true
		}
		if drop && os.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// StartCheckpoints begins the periodic checkpoint loop against src (no-op
// when Options disabled it). Stop it with Close.
func (l *Log) StartCheckpoints(src Source) {
	every := l.o.checkpointEvery()
	if every <= 0 || l.ckptStop != nil {
		return
	}
	l.ckptStop = make(chan struct{})
	l.ckptDone = make(chan struct{})
	go func() {
		defer close(l.ckptDone)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-l.ckptStop:
				return
			case <-t.C:
				l.Checkpoint(src)
			}
		}
	}()
}

// Close stops the background loops, flushes and fsyncs the tail, and
// closes the live segment. The log accepts no appends afterwards; closing
// twice is a no-op.
func (l *Log) Close() error {
	if l.ckptStop != nil {
		close(l.ckptStop)
		<-l.ckptDone
		l.ckptStop = nil
	}
	if l.committerStop != nil {
		close(l.committerStop)
		<-l.committerDone
		l.committerStop = nil
	}
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.closed = true // appends are refused from here on
	l.mu.Unlock()
	l.flushIO(true)
	var closeErr error
	if l.f != nil {
		closeErr = l.f.Close()
		l.f = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if closeErr != nil {
		l.setErrLocked(closeErr)
	}
	return l.err
}
