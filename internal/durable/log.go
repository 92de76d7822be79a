// Package durable adds crash durability to the in-memory tree forest: a
// group-committed, checksummed write-ahead log fed by every writer once its
// transaction has returned, plus periodic consistent checkpoints built from
// snapshot scans of the store, with log rotation and truncation once a
// checkpoint seals. Recovery loads the newest sealed checkpoint and replays
// the surviving WAL tail idempotently.
//
// # What is logged, and when
//
// The log is a redo log written after commit: every committed transaction
// appends one record — its commit-clock position and its absolute effects
// (puts and deletes) — whichever shards its keys live on, so the
// transaction's atomicity carries onto disk (a record is wholly present or
// wholly torn, never split). Records are framed with a length prefix and a
// CRC-32C, so a truncated or corrupted tail is detected and cleanly
// discarded. Nothing on disk names a shard: a directory reopens under any
// shard count.
//
// # Durability contract
//
// Group commit bounds the loss window: with Options.Sync every record is
// written and fsynced before the append returns (per-operation durability);
// otherwise appends only fill an in-memory buffer and a background
// committer writes and fsyncs it every GroupCommit interval — off the
// append lock, see Log — so a crash loses at most the operations of the
// last unsynced window. Because records are appended after publication,
// commit order and append order can differ under concurrency; recovery
// restores per-key ordering among the surviving records by sorting them on
// their commit-clock positions. The contract is therefore: every operation
// whose record was synced (equivalently, every operation that returned,
// plus under group commit the synced part of the final window) is
// recovered exactly; operations still in flight at the crash — published
// in memory, record not yet on disk — are retained or lost independently
// of one another, so no cross-transaction ordering is promised within that
// final window (a later record can survive a tear that loses an earlier
// concurrent one; logging at the lock point instead would buy strict
// prefixes and is a ROADMAP item). Single-writer histories, and any
// history under Sync, recover as exact prefixes.
//
// # Checkpoints and recovery
//
// A checkpoint first rotates the log to a fresh segment, then scans the
// store with consistent read-only snapshots (recording the commit-clock
// cut; the source may take it in chunks and report their minimum, see
// Source), writes the pairs to a temporary file and seals it by rename.
// Rotating first guarantees every record in the older segments is covered
// by the snapshot (its transaction published before the rotation, hence
// before any of the snapshot's clock draws), so the older segments and
// checkpoints are deleted once the seal lands. A crash anywhere in that
// window is safe: recovery picks the newest sealed checkpoint, replays only
// segments at or above its base, and skips any record position at or below
// the checkpoint's cut — stale files left by an interrupted truncation are
// ignored or re-deleted.
//
// A checkpoint with nothing to cover is skipped: when no record was
// appended or dropped since the rotation of the last checkpoint that
// sealed, that checkpoint plus the (empty) live tail already describe the
// store, so an idle store costs no checkpoint I/O at all.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	// DefaultMaxUnsynced is the backpressure bound on bytes appended but
	// not yet fsynced under group commit.
	DefaultMaxUnsynced = 1 << 20
	// defaultRecoveryAppliers caps the parallel recovery applier count when
	// none is configured (the effective count is min(shards, this)).
	defaultRecoveryAppliers = 8
)

// segMagic is a WAL segment's whole header.
const segMagic = "SFWAL002"

// The old format's magics. Its segments and checkpoints carried a shard
// index per record and a cut per shard; recovery refuses them (and any
// delta-*.ckpt of that format's incremental checkpoints) rather than
// misread them or fall back past them.
const (
	segMagicV1  = "SFWAL001"
	ckptMagicV1 = "SFCKPT01"
)

// errOldFormat marks a file written in the old on-disk format.
var errOldFormat = errors.New("written in the old per-shard on-disk format, which this version does not read")

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
	// MaxUnsynced bounds the bytes appended but not yet fsynced under
	// group commit: an append that would exceed it flushes and fsyncs
	// inline (bounded blocking — backpressure instead of an unbounded
	// loss window when writers outrun the committer). 0 selects
	// DefaultMaxUnsynced; a negative value disables the bound.
	MaxUnsynced int
	// RecoveryAppliers is the number of parallel applier goroutines
	// recovery partitions its replay across. 0 selects min(shards,
	// defaultRecoveryAppliers), shards being Open's argument; 1 forces the
	// serial path.
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

// Source is the in-memory store a Log checkpoints: a snapshot cut at a
// commit-clock position. forest.Forest implements it. Snapshot is called by
// one checkpointer at a time (never concurrently with itself).
//
// A snapshot need not be one transaction. A source may stream the store as
// a sequence of chunks — disjoint key ranges that together cover the key
// space, each read consistently at its own position c_j, every one begun
// after the call — and return cut = min c_j (forest.Forest does, over every
// shard's chunks, because a whole-store transaction under write load
// restarts without end). That is safe because every position — of every
// chunk and every record, whichever shard — comes from one clock, and for
// the three things a cut is used for:
//
//   - Truncation. The log rotates before it calls Snapshot, and a record is
//     appended after its transaction published, so every record in the
//     segments below the rotation has a position at or below every chunk's
//     c_j: each chunk already holds its effect, and those segments can go
//     once the checkpoint seals — whatever the cut.
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
	// Snapshot streams a snapshot of the store through fn — one consistent
	// read, or consistent chunks as described above — and returns the
	// commit-clock position it was cut at: every transaction that published
	// at or below it is included; a later one may or may not be, and is
	// replayed from the log either way.
	Snapshot(fn func(k, v uint64)) uint64
}

// Stats counts a Log's activity. All fields are monotonically increasing.
type Stats struct {
	Records            uint64 // records appended, one per committed transaction
	Bytes              uint64 // framed bytes appended
	Flushes            uint64 // append-buffer writes to the live segment
	Syncs              uint64 // fsyncs of the live segment
	Stalls             uint64 // appends that hit the MaxUnsynced bound and fsynced inline
	Dropped            uint64 // records not logged: oversize payload, or appended while wedged on an I/O error
	Checkpoints        uint64 // checkpoints sealed
	SkippedCheckpoints uint64 // checkpoints skipped because nothing was appended or dropped since the last seal
	CheckpointPairs    uint64 // pairs written across all checkpoints
	CheckpointBytes    uint64 // bytes written across all checkpoint files
	CheckpointNanos    uint64 // wall time spent checkpointing
	Rotations          uint64 // segment rotations
	FilesRemoved       uint64 // obsolete segments and checkpoints deleted

	// Deprecated: always 0. Every checkpoint is a full one; the field stays
	// for readers written when checkpoints could be incremental.
	DeltaCheckpoints uint64
}

// errClosed is returned by operations on a closed Log.
var errClosed = errors.New("durable: log is closed")

// pendSpan is one traced append awaiting its fsync (see Log.pend): the
// sampled operation's trace id, the append instant, and the record's op
// count and framed size (A/B of the eventual SpanWALAppend).
type pendSpan struct {
	id    uint64
	at    int64
	nops  int64
	bytes int64
}

// Log is an open write-ahead log: one live segment receiving appends, plus
// the checkpoint machinery. Appends are safe for concurrent use by any
// number of committing threads; Checkpoint/StartCheckpoints drive one
// checkpointer at a time. Create one with Open, which also performs
// recovery.
//
// Group commit is double-buffered. Appenders frame their records into an
// in-memory buffer under mu — encode, checksum, nothing else —
// and whoever makes records durable (the committer, Sync, a Sync-mode or
// stalled appender, rotation, Close) takes ioMu, swaps the buffer out under
// mu, and writes and fsyncs it with mu released. No append ever waits for a
// disk unless the durability dial says it must (Sync, or the MaxUnsynced
// bound). Lock order: ioMu before mu.
type Log struct {
	dir string
	o   Options

	// mu guards everything an append touches: the fill buffer, the segment
	// and generation counters, the counters and the error/wedge state. It
	// is never held across file I/O.
	mu       sync.Mutex
	buf      []byte // framed records awaiting the next flush (the fill buffer)
	seg      uint64 // live segment index: where the fill buffer is destined
	nextGen  uint64 // next checkpoint generation
	closed   bool
	err      error // first write error, sticky (surfaced by Err)
	wedged   bool  // an I/O error poisoned the live segment; appends drop until the next rotation
	unsynced int   // framed bytes appended but not yet fsynced, in-flight flushes included (backpressure)
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
	// the append to the fsync that made it durable. pend holds the traced
	// appends awaiting that fsync; the flush whose fsync covers them swaps
	// it with ioPend, so both keep their capacity. MaxUnsynced bounds its
	// length; a wedged segment drops the spans, never a record. Set under
	// mu (SetTracer), read under mu.
	tracer *obs.Tracer
	pend   []pendSpan

	// ckptMu serializes whole checkpoints (the periodic loop and manual
	// Checkpoint calls). It also guards the fields below, which only the
	// single checkpoint driver touches.
	ckptMu sync.Mutex
	// sealedMark is Stats.Records+Stats.Dropped as of the rotation of the
	// last checkpoint that sealed (sealed reports whether one has): a
	// checkpoint that finds the sum unchanged has nothing to cover. Dropped
	// records count because the next checkpoint is what re-captures their
	// values; a failed checkpoint leaves the mark where it was.
	sealed     bool
	sealedMark uint64
	lastPairs  int // pairs in the last sealed checkpoint (store-size estimate)

	committerStop chan struct{}
	committerDone chan struct{}
	ckptStop      chan struct{}
	ckptDone      chan struct{}
}

// logBufSize is the initial capacity of each of the two append buffers.
const logBufSize = 1 << 16

// Open recovers the directory's durable state and opens a fresh log
// generation for appends. shards is the shard count of the store the log
// feeds; it only sizes the default recovery applier count (see
// Options.RecoveryAppliers) — nothing on disk depends on it, so a directory
// reopens under any count. The returned Recovery holds the recovered
// key/value state; the caller loads it into the store, attaches the log,
// and should then seal a fresh checkpoint (repro.Open does) so the
// replayed history is rebased onto the new process's clock.
func Open(dir string, shards int, o Options) (*Log, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, maxSeg, maxGen, err := recoverDir(dir, o.recoveryAppliers(shards))
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, o: o, seg: maxSeg + 1, nextGen: maxGen + 1,
		buf: make([]byte, 0, logBufSize), spare: make([]byte, 0, logBufSize),
		fsync: (*os.File).Sync}
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
// The next checkpoint re-captures the dropped records' current values from
// the store, so the loss window closes there. The in-memory store stays
// usable throughout; the caller decides whether to fail over.
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
	if _, err := f.WriteString(segMagic); err != nil {
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

// Append appends one committed transaction as one record: the
// commit-clock position its publication carried and its effects, in the
// order it made them. The ops slice is encoded before Append returns and
// may be reused by the caller; empty transactions append nothing. traceID,
// when non-zero (and a tracer is attached), is a sampled operation's trace
// id: the record's eventual fsync closes a SpanWALAppend under it, covering
// append→durability.
func (l *Log) Append(pos uint64, ops []Op, traceID uint64) {
	if len(ops) == 0 {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	buf, start := beginFrame(l.buf)
	l.buf = encodeRecord(buf, pos, ops)
	mode, pre := l.endRecord(start, traceID, int64(len(ops)))
	l.mu.Unlock()
	l.afterAppend(mode, pre)
}

// LogUpdate is Append(seq, ops, 0).
//
// Deprecated: records carry no shard, so shard is ignored; use Append.
func (l *Log) LogUpdate(shard int, seq uint64, ops []Op) { l.Append(seq, ops, 0) }

// endRecord seals the record encoded behind the frame header at start
// (beginFrame) or takes it back out of the buffer when it cannot be
// logged, and reports what the append owes the disk (pre is the unsynced
// byte count behind a flushStall). A non-zero traceID enqueues a pending
// SpanWALAppend closed by the record's fsync (nops is the span's A field).
// Caller holds mu.
func (l *Log) endRecord(start int, traceID uint64, nops int64) (mode flushMode, pre int) {
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
	l.st.Bytes += uint64(framed)
	l.unsynced += framed
	if traceID != 0 && l.tracer != nil {
		l.pend = append(l.pend, pendSpan{id: traceID, at: time.Now().UnixNano(),
			nops: nops, bytes: int64(framed)})
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
		l.pend = l.pend[:0]
		return nil, 0, false
	}
	out = l.buf
	l.buf = l.spare[:0]
	if sync {
		l.ioPend, l.pend = l.pend, l.ioPend[:0]
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
		l.pend = l.pend[:0] // durability unknown: drop the pending spans
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
			tracer.Record(p.id, obs.SpanWALAppend, obs.OpNone, p.at, now, p.nops, p.bytes)
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
// behind it: rotate to a fresh segment, snapshot the store, write and
// seal the checkpoint, then delete the now-covered older segments and
// checkpoints. Concurrent appends proceed throughout (into the fresh
// segment during the snapshot). Checkpoint calls serialize with each other
// and with the periodic loop. When nothing was appended or dropped since
// the rotation of the last checkpoint that sealed, the call is a no-op
// (counted in Stats.SkippedCheckpoints) — an idle store costs no
// checkpoint I/O.
func (l *Log) Checkpoint(src Source) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	return l.checkpoint(src, true)
}

// checkpoint is Checkpoint with the truncation step separable, so crash
// tests can reproduce the "sealed but not yet truncated" window. Caller
// holds ckptMu.
func (l *Log) checkpoint(src Source, truncate bool) error {
	start := time.Now()

	// Rotate first: every record already in the old segments belongs to a
	// transaction that published before the snapshot below draws its clock
	// positions, so the snapshot covers the old segments entirely. The idle
	// mark, the buffer swap and the segment/generation assignment happen in
	// one mu critical section, so every record counted in the mark is in the
	// swapped buffer or an older segment. The file work that follows needs
	// ioMu alone, so appends fill the next buffer while the old segment is
	// fsynced and closed and the new one created.
	l.ioMu.Lock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.ioMu.Unlock()
		return errClosed
	}
	mark := l.st.Records + l.st.Dropped
	if l.sealed && mark == l.sealedMark && truncate {
		l.st.SkippedCheckpoints++
		l.mu.Unlock()
		l.ioMu.Unlock()
		return nil
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
		l.mu.Unlock()
		l.ioMu.Unlock()
		return openErr
	}
	l.wedged = false // fresh segment: past I/O errors stay in Err only
	l.st.Rotations++
	l.fr.Record(obs.EvWALRotate, 0, int64(base), 0)
	l.mu.Unlock()
	l.ioMu.Unlock()

	// The previous checkpoint's pair count (plus slack for growth) saves the
	// doubling copies of a store-sized slice.
	kvs := make([]kvPair, 0, l.lastPairs+l.lastPairs/8)
	cut := src.Snapshot(func(k, v uint64) {
		kvs = append(kvs, kvPair{k: k, v: v})
	})
	b := encodeCheckpoint(gen, base, cut, kvs)
	if err := sealFile(l.dir, checkpointName(l.dir, gen), b); err != nil {
		l.mu.Lock()
		l.setErrLocked(err)
		l.mu.Unlock()
		return err
	}
	l.sealed, l.sealedMark, l.lastPairs = true, mark, len(kvs)
	removed := 0
	if truncate {
		removed = removeObsolete(l.dir, base, gen)
	}

	l.mu.Lock()
	l.st.Checkpoints++
	l.st.CheckpointPairs += uint64(len(kvs))
	l.st.CheckpointBytes += uint64(len(b))
	dur := time.Since(start)
	l.st.CheckpointNanos += uint64(dur.Nanoseconds())
	l.st.FilesRemoved += uint64(removed)
	if l.ckptH != nil {
		l.ckptH.Record(uint64(dur.Nanoseconds()))
	}
	l.fr.Record(obs.EvCheckpointFull, dur, int64(len(b)), int64(len(kvs)))
	l.mu.Unlock()
	return nil
}

// removeObsolete deletes segments below base and checkpoints below gen,
// returning how many files went away. Failures are ignored: recovery
// tolerates stale files, and the next checkpoint retries.
func removeObsolete(dir string, base, gen uint64) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		drop := false
		if i, ok := parseIndexed(name, "wal-", ".log"); ok {
			drop = i < base
		} else if g, ok := parseIndexed(name, "checkpoint-", ".ckpt"); ok {
			drop = g < gen
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
