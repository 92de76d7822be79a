package stm

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// A Thread is the per-goroutine execution context for transactions: it owns
// a reusable transaction descriptor, statistics, a pseudo-random state for
// the pause between an abort and its retry, the pending/completed counters
// that every thread's limbo inspects, and its own limbo of retired nodes
// (paper §3.4).
//
// A Thread must not be shared between goroutines.
type Thread struct {
	stm  *STM
	slot uint64

	// Domain config cached at registration (see STM.NewThread): consulted
	// on every transactional access, so it must live on the thread's own
	// hot line rather than behind the shared STM pointer.
	yieldEvery int

	stats    Stats
	opReads  uint64 // transactional reads accumulated by the current operation
	rngState uint64 // xorshift state for pause's spin
	inAtomic bool
	gated    bool   // this thread's AtomicRO holds the domain's writer gate
	accesses uint64 // transactional accesses, for the yield-injection knob
	opsDone  uint64 // owner-local mirror of opCount (see completeOp)

	// structural marks the thread as a maintenance driver: its commits and
	// aborts are additionally charged to the Structural* counters, giving
	// the structural-vs-semantic split of the abort taxonomy. Set once at
	// setup (MarkStructural), before the thread runs transactions.
	structural bool

	// Trace context: attached by the facade at op start when the op was
	// sampled (SetTraceContext), cleared at op end. While traceID is
	// non-zero AtomicMode records one SpanAttempt per attempt under it;
	// lastCause remembers the most recent abort's cause so the attempt span
	// can name it. Owner-goroutine only, like stats.
	tr        *obs.Tracer
	traceID   uint64
	traceOp   obs.OpKind
	lastCause AbortCause

	// prep is the prepared-attempt handle Prepare hands out: at most one
	// exists per thread, so it lives here instead of on the heap. It is
	// cold, but its 16 B are what start tx on a cache line (see tx).
	prep Prepared

	// Pending and OpCount implement the epoch scheme of §3.4: "each
	// application thread maintains a boolean indicating a pending operation
	// and a counter indicating the number of completed operations". A
	// thread's limbo snapshots them when it seals a generation and frees the
	// generation only once every thread has either completed an operation
	// or was observed idle (Reclaim).
	//
	// They are the only Thread fields read by other goroutines while the
	// owner is running, so they get a cache line of their own: without the
	// pads, every limbo poll would steal the line holding the owner's hot
	// counters, and every owner update would invalidate the poller's copy
	// of whatever shared the line.
	_       cacheLinePad
	pending atomic.Bool
	opCount atomic.Uint64
	_       cacheLinePad

	// live mirrors the subset of stats that is scrapeable while the thread
	// runs (STM.LiveStats): the owner publishes each counter with an atomic
	// store right after bumping its plain twin — the completeOp
	// owner-local-mirror pattern — so a /metrics scrape sums them race-free
	// without pausing anything. On amd64 such a store is an XCHG, which is
	// implicitly locked: it saves the load-add round trip of an atomic
	// increment, not the locked instruction. Like pending/opCount these are
	// the only fields foreign goroutines read while the owner is hot, hence
	// their own padded region.
	live liveMirror
	_    cacheLinePad

	// tx is the reusable transaction descriptor. It is by far the largest
	// field (it embeds the inline read/write sets), so it sits after the
	// fields above have settled into the leading lines. It starts on a
	// cache line (offset 576, pinned by TestThreadLayout): 8 B off it,
	// paper-u20 lost ≈ 5 % on a 2-vCPU host. A field added before it, or
	// removed, must keep that; prep's and live's sizes are the slack to
	// trade.
	tx Tx

	// limbo holds what this thread's committed transactions retired until
	// it is safe to free (Reclaim). Owner-goroutine only; behind tx, so
	// it moves no offset above.
	limbo limbo
}

// ReclaimBatch is the number of nodes a thread's newest limbo generation
// collects before the end of an operation steps the limbo (Reclaim). A
// thread therefore holds at most about twice as many retired nodes as this,
// unless some other thread stays inside one operation.
const ReclaimBatch = 64

// limbo is a thread's two-generation list of retired nodes (paper §3.4):
// nodes[:mark] is the sealed generation, retired before snap was taken, and
// nodes[mark:] the newest, retired since.
type limbo struct {
	nodes []nodeEntry // unlink order, oldest first; refs without retiredBit
	mark  int
	snap  []threadSnap
}

// threadSnap is one thread's pending flag and completed-operation count as
// a limbo generation was sealed.
type threadSnap struct {
	th      *Thread
	pending bool
	count   uint64
}

// Reclaim steps the thread's limbo, never waiting: it frees the sealed
// generation if every thread that was inside an operation when it was
// sealed has since completed one, then seals every node retired so far as
// the next generation under a fresh snapshot of the domain's threads. It
// returns the number of nodes freed. The end of an operation calls it once
// the newest generation holds ReclaimBatch nodes, except on a maintenance
// thread (MarkStructural), whose driver calls it once per pass. Owner
// goroutine only, outside any transaction.
//
// A node is retired only after the transaction that unlinked it committed,
// so an operation that starts after the snapshot cannot reach it, and one
// that was running at the snapshot has finished with it once its thread's
// counter moved: the paper's rule, "if for every thread its counter has
// increased or if its boolean is false then the nodes up to the previously
// stored end pointer can be safely freed".
func (th *Thread) Reclaim() int {
	l := &th.limbo
	freed := 0
	if l.mark > 0 && l.expired() {
		freed = l.mark
		for _, e := range l.nodes[:freed] {
			e.a.Free(e.ref)
		}
		n := copy(l.nodes, l.nodes[freed:])
		clear(l.nodes[n:])
		l.nodes = l.nodes[:n]
	}
	l.mark, l.snap = len(l.nodes), th.stm.snapshotThreads(l.snap[:0])
	return freed
}

// Retiring returns the number of retired nodes the thread's limbo still
// holds, sealed or not. Owner goroutine only, like Reclaim.
func (th *Thread) Retiring() int { return len(th.limbo.nodes) }

// expired reports whether no thread is still inside an operation it was
// running when the sealed generation was snapshotted.
func (l *limbo) expired() bool {
	for _, s := range l.snap {
		if s.pending && s.th.OpCount() == s.count {
			return false
		}
	}
	return true
}

// endOp closes the operation Atomic or Prepare opened and hands what its
// committed transaction retired to the limbo.
func (th *Thread) endOp() {
	if th.opReads > th.stats.MaxOpReads {
		th.stats.MaxOpReads = th.opReads
	}
	th.completeOp()
	th.pending.Store(false)
	th.inAtomic = false
	if len(th.tx.nodes) != 0 {
		th.settle()
	}
}

// settle empties the node log of a committed transaction: its allocated
// nodes are linked and stay, its retired ones join the newest limbo
// generation. A client thread then steps the limbo once that generation is
// full.
func (th *Thread) settle() {
	tx, l := &th.tx, &th.limbo
	for _, e := range tx.nodes {
		if e.ref&retiredBit != 0 {
			l.nodes = append(l.nodes, nodeEntry{a: e.a, ref: e.ref &^ retiredBit})
		}
	}
	tx.clearNodes()
	if !th.structural && len(l.nodes)-l.mark >= ReclaimBatch {
		th.Reclaim()
	}
}

// completeOp counts one completed operation for the §3.4 limbos. The
// published counter is only ever written by the owning goroutine, so an
// atomic store of an owner-local mirror replaces an atomic increment. On
// amd64 Go compiles that store to XCHGQ (go tool objdump -s endOp shows
// it), which is locked like the LOCK XADD it replaces: endOp pays two
// locked instructions, this one and pending's XCHGL. Merging pending and
// opCount into one word and dropping the live.commits store saves two of
// them per operation, but measured no gain on paper-u20 (6 interleaved
// pairs on a 2-vCPU host: 3.72 M → 3.84 M ops/s, ahead in 4 of 6; read
// p50 462 → 464 ns), so the two words stay.
func (th *Thread) completeOp() {
	th.opsDone++
	th.opCount.Store(th.opsDone)
}

// liveMirror is the atomically published mirror of the live-scrapeable
// counters (see the field comment on Thread.live).
type liveMirror struct {
	commits       atomic.Uint64
	aborts        atomic.Uint64
	retries       atomic.Uint64
	causes        [NumAbortCauses]atomic.Uint64
	structCommits atomic.Uint64
	structAborts  atomic.Uint64
	spinExhausted atomic.Uint64
}

// noteCommit charges one committed transaction: the plain counter for
// quiescent readers, the atomic mirror for live ones.
func (th *Thread) noteCommit() {
	th.stats.Commits++
	th.live.commits.Store(th.stats.Commits)
	if th.structural {
		th.stats.StructuralCommits++
		th.live.structCommits.Store(th.stats.StructuralCommits)
	}
}

// noteAbort charges one aborted attempt to the taxonomy.
func (th *Thread) noteAbort(cause AbortCause) {
	th.lastCause = cause
	th.stats.Aborts++
	th.live.aborts.Store(th.stats.Aborts)
	th.stats.AbortCauses[cause]++
	th.live.causes[cause].Store(th.stats.AbortCauses[cause])
	if th.structural {
		th.stats.StructuralAborts++
		th.live.structAborts.Store(th.stats.StructuralAborts)
	}
}

// noteRetry charges one abort→retry transition.
func (th *Thread) noteRetry() {
	th.stats.Retries++
	th.live.retries.Store(th.stats.Retries)
}

// noteSpinExhausted charges one exhausted spin budget (a cold path: it
// follows maxSpin failed samples).
func (th *Thread) noteSpinExhausted() {
	th.stats.SpinExhausted++
	th.live.spinExhausted.Store(th.stats.SpinExhausted)
}

// MarkStructural marks this thread as a maintenance (structural) driver:
// from now on its commits and aborts are additionally counted in
// Stats.StructuralCommits/StructuralAborts, and its limbo is stepped only
// by its driver's Reclaim calls, never at the end of an operation. Call it
// once right after NewThread, before the thread runs transactions; it is
// not synchronized.
func (th *Thread) MarkStructural() { th.structural = true }

// liveStats reads the thread's atomically published mirror. Safe from any
// goroutine at any time; the fields are individually current but, as with
// any live scrape, not mutually transactional.
func (th *Thread) liveStats() LiveStats {
	var ls LiveStats
	ls.Commits = th.live.commits.Load()
	ls.Aborts = th.live.aborts.Load()
	ls.Retries = th.live.retries.Load()
	for i := range ls.AbortCauses {
		ls.AbortCauses[i] = th.live.causes[i].Load()
	}
	ls.StructuralCommits = th.live.structCommits.Load()
	ls.StructuralAborts = th.live.structAborts.Load()
	ls.SpinExhausted = th.live.spinExhausted.Load()
	return ls
}

// Slot returns the thread's lock-owner slot id (1-based).
func (th *Thread) Slot() uint64 { return th.slot }

// STM returns the domain this thread belongs to.
func (th *Thread) STM() *STM { return th.stm }

// Stats returns a copy of the thread's counters. It may be called from other
// goroutines only when the thread is quiescent; for live monitoring use the
// atomic Pending/OpCount accessors instead.
func (th *Thread) Stats() Stats { return th.stats }

// ResetStats zeroes the thread's counters (between benchmark phases),
// including the live mirrors.
func (th *Thread) ResetStats() {
	th.stats = Stats{}
	th.live.commits.Store(0)
	th.live.aborts.Store(0)
	th.live.retries.Store(0)
	for i := range th.live.causes {
		th.live.causes[i].Store(0)
	}
	th.live.structCommits.Store(0)
	th.live.structAborts.Store(0)
	th.live.spinExhausted.Store(0)
}

// SetTraceContext attaches a sampled operation's trace context: while id is
// non-zero, every subsequent Atomic/AtomicMode attempt on this thread
// records a SpanAttempt under it (op labels the spans). Pass (nil, 0, 0) to
// clear at op end. Owner-goroutine only, like the rest of the thread state.
func (th *Thread) SetTraceContext(tr *obs.Tracer, id uint64, op obs.OpKind) {
	th.tr = tr
	th.traceID = id
	th.traceOp = op
}

// LastCommit returns the commit position of the thread's last committed
// transaction, read after Atomic (or a prepared transaction's Finalize)
// returns: the write version its publication carries, or the read snapshot
// for a read-only commit. Only the committed attempt's position surfaces —
// every attempt starts from 0 — so it is where a write-ahead log record of
// the transaction's effects belongs, appended at any time afterwards (the
// durable layer sorts records by position). Owner-goroutine only.
func (th *Thread) LastCommit() uint64 { return th.tx.commitPos }

// Pending reports whether the thread is currently inside an operation.
func (th *Thread) Pending() bool { return th.pending.Load() }

// OpCount returns the number of completed operations.
func (th *Thread) OpCount() uint64 { return th.opCount.Load() }

// Atomic runs fn as a transaction in the STM's default mode, retrying on
// abort until it commits. See AtomicMode.
func (th *Thread) Atomic(fn func(*Tx)) {
	th.AtomicMode(th.stm.defaultMode, fn)
}

// AtomicMode runs fn as a transaction in the given mode, retrying until the
// transaction commits; an aborted attempt pauses before its retry (see
// lifecycle.go). Within fn all shared state must be accessed through the
// transaction's Read/Write/URead methods.
// fn may be re-executed arbitrarily many times; it must be free of side
// effects other than transactional accesses and writes to captured locals
// that are re-assigned on every attempt. An attempt that is already doomed
// to fail commit-time validation (a "zombie") can observe states that no
// consistent snapshot contains — such as a freshly published node that
// contradicts earlier reads — so fn must treat impossible observations by
// calling Tx.Restart, never by panicking or looping on them.
//
// Atomic calls delimit "operations" for the purposes of Stats.MaxOpReads and
// of the §3.4 reclamation counters: the pending flag is raised for the
// duration of the call and the completed-operation counter is incremented
// on the way out, where the nodes the committed transaction retired join
// the thread's limbo (Tx.Retire). Nested calls panic: compose transactions by
// passing the *Tx value instead (that is precisely the reusability argument
// of paper §5.4).
func (th *Thread) AtomicMode(mode Mode, fn func(*Tx)) {
	if th.inAtomic {
		panic("stm: nested Atomic call; compose by passing *Tx instead")
	}
	th.inAtomic = true
	th.pending.Store(true)
	th.opReads = 0
	tx := &th.tx
	traced := th.traceID != 0
	var start int64
	for retries := 0; ; {
		if !tx.readOnly && th.stm.gate.Load() != 0 {
			th.waitGate()
		}
		if traced {
			start = time.Now().UnixNano()
		}
		tx.begin(mode)
		ok := th.runAttempt(tx, fn)
		if traced {
			th.recordAttempt(start, ok, retries)
		}
		if ok {
			break
		}
		retries++
		th.noteRetry()
		if !tx.lostUnlogged() && !th.starving(retries) {
			th.pause(retries)
		}
	}
	th.endOp()
}

// recordAttempt records a sampled operation's attempt that began at start
// as one SpanAttempt: A is -1 for the committing attempt, otherwise the
// abort cause; B is the attempt's index. time.Now and Tracer.Record never
// allocate, so the sampled path keeps AllocsPerRun=0 too.
func (th *Thread) recordAttempt(start int64, ok bool, index int) {
	a := int64(-1)
	if !ok {
		a = int64(th.lastCause)
	}
	th.tr.Record(th.traceID, obs.SpanAttempt, th.traceOp, start, time.Now().UnixNano(), a, int64(index))
}

// AtomicRO runs fn as a read-only CTL transaction — an operation exactly as
// AtomicMode delimits one: pending raised for the §3.4 limbos, reads
// counted towards Stats.Reads and MaxOpReads, one completed operation on
// the way out — whose first attempt is unlogged: Tx.Read samples each word
// as always (unlocked, with a stable meta) and accepts it iff its version is
// within the snapshot rv, but appends nothing to the read set. Write panics
// inside fn.
//
// Why logging nothing is safe. Every value an unlogged attempt returns was
// observed unlocked under an unchanged meta whose version is ≤ rv, and a
// committer holds its locks from before the clock reaches its write version
// (see commit's protocol comment), so each such value is the one current at
// rv: together they are the snapshot at rv, which is TL2's read-only
// argument. A read-only commit validates nothing — commit returns on an
// empty write set — so the read set of a read-only CTL transaction has
// exactly one consumer, the timestamp extension in Read. The unlogged
// attempt forgoes extension: where a logged one would revalidate and advance
// rv, it aborts (AbortUnlogged). rv therefore never moves during an unlogged
// attempt, and Tx.Snapshot (= rv) is the cut of everything it read.
//
// The retry is the logged attempt AtomicMode(CTL, fn) has always run, with
// extension, and it starts at once — a lost unlogged attempt found a newer
// word, not a held one, so it does not pause. Under heavy writers the worst
// case is therefore what it was, plus one attempt that stopped at the first
// word newer than its snapshot.
//
// A scan that keeps losing to writers — gateRetries attempts in a row —
// takes the domain's writer gate (STM.gate): new writing attempts wait until
// it commits, so a scan of any width completes under any write rate, at the
// price of a writer stall as long as its last attempt.
func (th *Thread) AtomicRO(fn func(*Tx)) {
	tx := &th.tx
	tx.readOnly, tx.unlogged = true, true
	th.AtomicMode(CTL, fn)
	tx.readOnly, tx.unlogged = false, false
	th.releaseGate()
}

// releaseGate gives the writer gate back if this thread holds it.
func (th *Thread) releaseGate() {
	if th.gated {
		th.gated = false
		th.stm.gate.Add(-1)
	}
}

// waitGate holds a writing attempt back while a starving read-only
// operation holds the writer gate (see STM.gate).
func (th *Thread) waitGate() {
	for th.stm.gate.Load() != 0 {
		runtime.Gosched()
	}
}

// runAttempt executes one attempt of fn and tries to commit, converting the
// abort panic into a false return.
func (th *Thread) runAttempt(tx *Tx, fn func(*Tx)) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == abortSignal {
				ok = false
				return
			}
			// A foreign panic (bug in user code) must not leave write
			// locks or the attempt's nodes behind, nor the writer gate
			// held. Nor may it leave the operation open: AtomicMode closes
			// it without a defer (this cold branch does it instead), and a
			// pending flag left raised would stop the §3.4 limbo of every
			// thread in the domain, while inAtomic would make every later
			// call on the thread a "nested" one.
			tx.undo()
			th.releaseGate()
			tx.readOnly, tx.unlogged = false, false
			th.endOp()
			panic(r)
		}
	}()
	fn(tx)
	return tx.commit()
}

// maybeYield implements the WithYield interleaving simulation: after every
// yieldEvery transactional accesses the thread hands the processor over,
// letting transactions overlap on under-provisioned hosts. It runs on
// every transactional access, so the common case (the knob is off) must
// inline to a load and a branch — the counting lives in yieldSlow to keep
// maybeYield inside the inlining budget.
func (th *Thread) maybeYield() {
	if th.yieldEvery == 0 {
		return
	}
	th.yieldSlow()
}

// yieldSlow is kept out of line so maybeYield stays within the inlining
// budget (an inlinable yieldSlow would be costed at its full body).
//
//go:noinline
func (th *Thread) yieldSlow() {
	th.accesses++
	if th.accesses%uint64(th.yieldEvery) == 0 {
		runtime.Gosched()
	}
}

// nextRand advances the thread's xorshift64 state.
func (th *Thread) nextRand() uint64 {
	x := th.rngState
	if x == 0 {
		x = th.slot*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	th.rngState = x
	return x
}
