package stm

import "runtime"

// abortSignal is the panic sentinel used to unwind an aborted transaction
// back to the Atomic retry loop.
var abortSignal = new(struct{ _ int })

// readEntry logs one invisible read: the word and the meta observed when the
// value was sampled. Validation succeeds while the word's meta is unchanged
// (or the word is write-locked by this very transaction over that version).
type readEntry struct {
	w   *Word
	ver uint64 // full meta value observed (unlocked, so bit 0 is clear)
}

// writeEntry buffers one transactional write. Under ETL (and at commit time
// under CTL) the entry also remembers the meta the lock replaced so an abort
// can restore it.
type writeEntry struct {
	w        *Word
	val      uint64
	prevMeta uint64
	locked   bool
}

// elasticWindow is the bounded buffer of an elastic transaction: the last
// two reads, enough for the hand-over-hand traversal pattern of search
// structures (E-STM's "cut" preserves only the immediately preceding reads).
const elasticWindow = 2

// inlineReads/inlineWrites/inlineNodes size the read and write sets and
// the node log embedded in the descriptor itself. They are sized so the
// operations of the paper's workloads (tree traversals recording a handful
// of reads, updates writing a few words and linking or unlinking at most one
// node) fit without ever calling the Go allocator; larger transactions
// overflow transparently onto heap-backed slices, which the descriptor then
// retains across attempts and operations. The AllocsPerRun gates in
// hotpath_test.go pin the in-budget case at zero allocations.
const (
	inlineReads  = 24
	inlineWrites = 8
	inlineNodes  = 4
)

// Allocator is a node store a transaction can allocate from (Tx.Alloc) and
// retire to (Tx.Retire): *arena.Arena is one. Free must accept any
// reference Alloc returned, and Alloc must return references below
// retiredBit.
type Allocator interface {
	Alloc(k, v uint64) uint64
	Free(ref uint64)
}

// retiredBit marks a node-log entry made by Tx.Retire; an entry without it
// was made by Tx.Alloc.
const retiredBit = 1 << 63

// nodeEntry logs one node an attempt took with Tx.Alloc or unlinked and
// handed to Tx.Retire (ref | retiredBit).
type nodeEntry struct {
	a   Allocator
	ref uint64
}

// Tx is a transaction descriptor. It is owned by a Thread and reused across
// attempts and operations; user code receives it from Atomic/AtomicMode and
// must not retain it past the enclosing call.
type Tx struct {
	th   *Thread
	mode Mode
	rv   uint64 // read snapshot (validation timestamp)

	reads  []readEntry
	writes []writeEntry

	// wfilter is a 64-bit hash-OR membership filter over the write set's
	// word addresses; widx/widxN are the open-addressed index engaged above
	// wsScanMax entries. Together they make write-set lookup O(1) — see
	// wset.go.
	wfilter uint64
	widx    []widxEnt
	widxN   int

	// Elastic state: a transaction is "elastic" until its first write, after
	// which it is upgraded to a normal (CTL) transaction whose read set is
	// seeded with the window contents.
	window   [elasticWindow]readEntry
	windowN  int
	hasWrite bool

	// unlogged marks the first attempt of an AtomicRO call: Read accepts a
	// word only at a version within the snapshot, logs nothing, and aborts
	// where a logged attempt would try a timestamp extension. AtomicMode's
	// retry loop clears it when that attempt is lost, so the retry is logged.
	// (It shares hasWrite's padding: no other field moves.)
	unlogged bool

	// preparedWV is the write version drawn at the lock point of a prepared
	// transaction (prepare()); finalizePrepared publishes with it. Drawing
	// the clock position at prepare — locks, then clock, then validation,
	// exactly commit()'s order — is what keeps the wv == rv+1 shortcut of
	// concurrent ordinary commits sound: any transaction that draws a later
	// position must validate in full and so observes the prepared locks.
	preparedWV uint64

	// commitPos is the committed attempt's position (Thread.LastCommit): the
	// write version for transactions that published, the read snapshot for
	// read-only commits. begin clears it, so an attempt that aborts leaves 0.
	commitPos uint64

	// readOnly marks the thread's descriptor for the duration of an
	// AtomicRO call: Write panics.
	readOnly bool

	// Inline storage for the read and write sets; reads/writes alias these
	// arrays (via init) until an attempt overflows them. Kept at the end of
	// the descriptor so the scalar hot fields above share the leading cache
	// lines.
	readsInline  [inlineReads]readEntry
	writesInline [inlineWrites]writeEntry

	// nodes logs the nodes the attempt took with Alloc and those it
	// retired with Retire (see there). It and its inline storage sit behind
	// the read and write sets, so no offset of the fields above moved when
	// it was added.
	nodes       []nodeEntry
	nodesInline [inlineNodes]nodeEntry
}

// init points the descriptor's read and write sets at their inline storage.
// It runs once per descriptor, at thread registration, not per attempt:
// begin truncates the slices in place, so a set that overflowed onto the
// heap keeps its capacity for later operations.
func (tx *Tx) init(th *Thread) {
	tx.th = th
	tx.reads = tx.readsInline[:0]
	tx.writes = tx.writesInline[:0]
	tx.nodes = tx.nodesInline[:0]
}

// begin resets the descriptor for a fresh attempt.
func (tx *Tx) begin(mode Mode) {
	tx.mode = mode
	tx.rv = tx.th.stm.clock.Load()
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.wfilter = 0
	tx.widxN = 0 // stale index entries are cleared on the next engage
	tx.windowN = 0
	tx.hasWrite = false
	tx.commitPos = 0
	tx.preparedWV = 0
}

// Snapshot returns the transaction's current read snapshot position: every
// read performed so far is consistent at this clock value. For a read-only
// transaction that runs to commit, the final Snapshot value is the cut the
// observed state belongs to — the durable layer's checkpointer records it as
// the shard's checkpoint position.
func (tx *Tx) Snapshot() uint64 { return tx.rv }

// Mode reports the mode of the running transaction.
func (tx *Tx) Mode() Mode { return tx.mode }

// Restart aborts the current attempt; Atomic will re-run the transaction
// from the beginning after the retry pause. Charged as an explicit abort in
// the cause taxonomy.
func (tx *Tx) Restart() { tx.abort(AbortExplicit) }

// Alloc takes a fresh node for (k, v) from a and logs it with the attempt.
// If the attempt commits, the node stays: the attempt's writes linked it.
// If it does not — an abort, a failed commit, a foreign panic, a dropped
// prepared transaction — the node goes back to a. That is safe because
// writes are buffered until commit, so no other thread can have reached a
// node of an attempt that did not commit; for the same reason the caller
// may initialise the node with plain stores. An attempt must link every
// node it allocates, or its commit leaks the node.
func (tx *Tx) Alloc(a Allocator, k, v uint64) uint64 {
	ref := a.Alloc(k, v)
	tx.nodes = append(tx.nodes, nodeEntry{a: a, ref: ref})
	return ref
}

// Retire logs ref, a node of a that the attempt unlinks. If the attempt
// commits, the node goes to the thread's limbo, and from there back to a
// once no operation that was running when it was unlinked can still hold
// it (paper §3.4; see Thread.Reclaim). If the attempt does not commit, the
// retire is forgotten: the node stays linked. A committed attempt must have
// unlinked every node it retires, and retire each once.
func (tx *Tx) Retire(a Allocator, ref uint64) {
	tx.nodes = append(tx.nodes, nodeEntry{a: a, ref: ref | retiredBit})
}

// abort undoes the attempt, counts the abort under its cause and unwinds.
func (tx *Tx) abort(cause AbortCause) {
	tx.undo()
	tx.th.noteAbort(cause)
	panic(abortSignal)
}

// undo rolls back an attempt that will not commit: it restores the
// pre-lock meta of every write entry that holds a lock, frees every node
// the attempt allocated and forgets the ones it retired. Safe to call when
// it holds none.
func (tx *Tx) undo() {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		e := &tx.writes[i]
		if e.locked {
			e.w.meta.Store(e.prevMeta)
			e.locked = false
		}
	}
	for i := range tx.nodes {
		if e := &tx.nodes[i]; e.ref&retiredBit == 0 {
			e.a.Free(e.ref)
		}
	}
	tx.clearNodes()
}

// clearNodes empties the node log, allocator references included, so the
// log keeps no arena alive.
func (tx *Tx) clearNodes() {
	clear(tx.nodes)
	tx.nodes = tx.nodes[:0]
}

// Read performs a transactional read of w and returns its value. The read
// is invisible: it records the observed version and is validated lazily
// (TinySTM timestamp extension) and at commit. Read aborts the transaction
// (by panicking internally) when a consistent value cannot be obtained. In
// the unlogged first attempt of an AtomicRO call it samples and checks the
// word the same way but records nothing, and aborts where it would extend.
//
// The write-set filter test is spelled out inline (rather than calling
// findWrite) here and in URead/Write: the combined function would exceed
// the inlining budget, and the miss path — every read of a word this
// transaction has not written — must not pay a call.
func (tx *Tx) Read(w *Word) uint64 {
	tx.th.maybeYield()
	tx.th.stats.Reads++
	tx.th.opReads++
	if tx.wfilter&wordBit(w) != 0 {
		if e := tx.findWriteSlow(w); e != nil {
			return e.val
		}
	}
	for {
		v, meta, ok := w.fastSample()
		if !ok {
			v, meta = tx.sampleContended(w)
		}
		if metaVersion(meta) <= tx.rv {
			if !tx.unlogged {
				tx.recordRead(w, meta)
			}
			return v
		}
		if tx.unlogged {
			// Nothing was logged, so there is nothing to extend over: give
			// the snapshot up and let the logged retry take it from here.
			tx.abort(AbortUnlogged)
		}
		// The word was written after our snapshot: try a timestamp
		// extension. If every prior read is still valid we can advance the
		// snapshot instead of aborting.
		now := tx.th.stm.clock.Load()
		if !tx.validateReads() {
			tx.abort(AbortValidation)
		}
		tx.th.stats.Extensions++
		tx.rv = now
	}
}

// sampleContended is the cold continuation of a failed fastSample: spin
// with the full budget, yield once, spin again, abort if the word is still
// locked (under a single-core scheduler spinning forever would livelock).
func (tx *Tx) sampleContended(w *Word) (uint64, uint64) {
	v, meta, ok := w.sampleUnlocked()
	if !ok {
		tx.th.noteSpinExhausted()
		runtime.Gosched()
		v, meta, ok = w.sampleUnlocked()
		if !ok {
			tx.th.noteSpinExhausted()
			tx.abort(AbortSpinExhausted)
		}
	}
	return v, meta
}

// recordRead logs the read according to the transaction's mode.
func (tx *Tx) recordRead(w *Word, meta uint64) {
	if tx.mode == Elastic && !tx.hasWrite {
		tx.elasticRecord(w, meta)
		return
	}
	tx.reads = append(tx.reads, readEntry{w: w, ver: meta})
}

// URead is TinySTM's unit load: it returns the most recent value committed
// to w (or the value this transaction has buffered for w), spin-waiting
// while the word is locked, and records nothing. It is the lightweight read
// of paper §3.3 used by the optimized find traversal.
func (tx *Tx) URead(w *Word) uint64 {
	tx.th.maybeYield()
	tx.th.stats.UReads++
	if tx.wfilter&wordBit(w) != 0 {
		if e := tx.findWriteSlow(w); e != nil {
			return e.val
		}
	}
	if v, _, ok := w.fastSample(); ok {
		return v
	}
	return tx.uReadContended(w)
}

// uReadContended spins (with yields between budgets) until the word is
// observed unlocked; unit reads never abort on contention.
func (tx *Tx) uReadContended(w *Word) uint64 {
	for {
		v, _, ok := w.sampleUnlocked()
		if ok {
			return v
		}
		tx.th.noteSpinExhausted()
		runtime.Gosched()
	}
}

// Write performs a transactional write of v to w. Under CTL (and Elastic)
// the write is buffered until commit; under ETL the write lock is acquired
// immediately and a conflicting lock holder forces an abort.
func (tx *Tx) Write(w *Word, v uint64) {
	if tx.readOnly {
		panic("stm: Write inside a read-only transaction (an AtomicRO call)")
	}
	tx.th.maybeYield()
	tx.th.stats.Writes++
	if tx.mode == Elastic && !tx.hasWrite {
		tx.elasticUpgrade()
	}
	if tx.wfilter&wordBit(w) != 0 {
		if e := tx.findWriteSlow(w); e != nil {
			e.val = v
			return
		}
	}
	if tx.mode == ETL {
		tx.writeETL(w, v)
		return
	}
	tx.writes = append(tx.writes, writeEntry{w: w, val: v})
	tx.noteWrite(w)
}

// writeETL acquires the write lock on w eagerly (encounter-time locking).
// A CAS can lose to a committing writer that republishes the word unlocked;
// like sampleUnlocked, the acquisition loop consumes a spin budget and then
// yields so a stream of such losses cannot monopolize the processor.
func (tx *Tx) writeETL(w *Word, v uint64) {
	lock := packLock(tx.th.slot)
	spins := 0
	for {
		m := w.meta.Load()
		if isLocked(m) {
			// Owned by a concurrent transaction (self-ownership is
			// impossible: findWrite would have found the entry).
			tx.abort(AbortLockWait)
		}
		if w.meta.CompareAndSwap(m, lock) {
			tx.writes = append(tx.writes, writeEntry{w: w, val: v, prevMeta: m, locked: true})
			tx.noteWrite(w)
			return
		}
		if spins++; spins >= maxSpin {
			spins = 0
			tx.th.noteSpinExhausted()
			runtime.Gosched()
		}
	}
}

// validateReads re-checks every logged read: the word must either carry the
// exact meta observed at read time, or be locked by this transaction over
// that same version.
func (tx *Tx) validateReads() bool {
	for i := range tx.reads {
		if !tx.validEntry(&tx.reads[i]) {
			return false
		}
	}
	if tx.mode == Elastic && !tx.hasWrite {
		for i := 0; i < tx.windowN; i++ {
			if !tx.validEntry(&tx.window[i]) {
				return false
			}
		}
	}
	return true
}

func (tx *Tx) validEntry(e *readEntry) bool {
	cur := e.w.meta.Load()
	if cur == e.ver {
		return true
	}
	if isLocked(cur) && lockOwner(cur) == tx.th.slot {
		if we := tx.findWrite(e.w); we != nil && we.locked && we.prevMeta == e.ver {
			return true
		}
	}
	return false
}

// commit attempts to make the transaction's writes visible atomically.
// It returns false (after rolling back) when validation fails, letting the
// Atomic loop retry.
//
// Clock protocol (a GV4/GV5 hybrid in TL2's terminology). With every write
// lock held, the committer loads the clock, c, and targets position
// wv = c+1. If its snapshot is still current (c == rv) it tries to advance
// the clock itself with a single CAS(c, c+1); success proves no transaction
// published between its snapshot and its lock point, so read validation is
// skipped — TL2's wv == rv+1 shortcut, with the CAS standing in for GV4's
// fetch-add. Every other committer adopts c+1 as its position WITHOUT a
// clock RMW of its own (the GV5-style draw); it advances the clock over wv
// with at most one guarded CAS and only THEN validates its read set in
// full. The advance doubles as the invariant keeper that a published
// version never exceeds the clock (Read's extension loop needs that to
// terminate). Under contention one RMW per position replaces one RMW per
// commit.
//
// Three orderings are load-bearing:
//
//   - the clock is loaded only AFTER the write locks are held (for ETL they
//     were taken during execution). A transaction that publishes at
//     position p has therefore held its locks since before the clock
//     reached p, so any transaction whose snapshot is ≥ p began after
//     those locks were taken and can only observe the locks or the
//     published values — never the overwritten ones. That is the whole
//     consistency argument for reads that are never revalidated
//     (read-only commits, the validation-skip fast path), and it is why
//     per-thread interval batching (drawing K positions ahead) would be
//     unsound here: a position consumed long after it was drawn breaks
//     "locks held since before the clock reached p".
//
//   - a slow-path committer advances the clock BEFORE validating its
//     reads. The fast path is only sound if every committer that holds
//     locks the fast committer failed to read past has already moved the
//     clock by the time the fast committer samples it: the fast committer
//     then either sees c != rv or loses its CAS, and in both cases falls
//     back to full validation, where it observes those locks. Validating
//     first would open a window — slow committer locks its writes,
//     validates (passing over words the fast committer is about to lock),
//     then both publish at the same position with mutually stale reads
//     (write skew). prepare() closes the same window for prepared
//     transactions with an eager fetch-add at the lock point.
//
//   - concurrent slow-path committers may share a position. Their write
//     sets are provably disjoint (all locks are held simultaneously) and
//     each validated its full read set under those locks, so they
//     serialize correctly at the shared position in either order; the
//     durable layer's replay sorts by position and tolerates the tie for
//     the same reason (disjoint writes commute).
func (tx *Tx) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions are already consistent: every read was
		// validated against rv at the time it was performed, and rv-era
		// values form a snapshot. Elastic read-only transactions validated
		// their window hand-over-hand.
		tx.commitPos = tx.rv
		tx.th.noteCommit()
		return true
	}
	if tx.mode != ETL {
		// Lazy acquirement: lock the write set now.
		lock := packLock(tx.th.slot)
		for i := range tx.writes {
			e := &tx.writes[i]
			m := e.w.meta.Load()
			if isLocked(m) || !e.w.meta.CompareAndSwap(m, lock) {
				tx.rollback(AbortLockWait)
				return false
			}
			e.prevMeta = m
			e.locked = true
		}
	}
	clock := &tx.th.stm.clock
	c := clock.Load() // after locks; see the protocol comment
	wv := c + 1
	// Elastic transactions always validate: their read set was cut and the
	// window entries were only ever checked hand-over-hand.
	fast := c == tx.rv && tx.mode != Elastic && clock.CompareAndSwap(c, wv)
	if !fast {
		// Guarded advance, BEFORE validation (see the protocol comment): the
		// clock must pass wv while our locks are held and before we re-check
		// our reads, so a racing fast-path committer either observes a clock
		// past its snapshot or loses its CAS — both force it into full
		// validation, where it sees our locks. A failed CAS means another
		// committer already moved the clock past c, so clock >= wv either
		// way — which also preserves the invariant that a published version
		// never exceeds the clock.
		if clock.Load() == c {
			clock.CompareAndSwap(c, wv)
		}
		if !tx.validateReads() {
			tx.rollback(AbortValidation)
			return false
		}
	}
	tx.commitPos = wv
	for i := range tx.writes {
		e := &tx.writes[i]
		e.w.val.Store(e.val)
	}
	newMeta := packVersion(wv)
	for i := range tx.writes {
		e := &tx.writes[i]
		e.w.meta.Store(newMeta)
		e.locked = false
	}
	tx.th.noteCommit()
	return true
}

// rollback undoes the attempt and counts it (a commit-time abort) under its
// cause.
func (tx *Tx) rollback(cause AbortCause) {
	tx.undo()
	tx.th.noteAbort(cause)
}
