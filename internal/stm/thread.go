package stm

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// A Thread is the per-goroutine execution context for transactions: it owns
// a reusable transaction descriptor, statistics, a pseudo-random state for
// contention-management backoff, and the pending/completed counters that the
// maintenance thread's garbage collector inspects (paper §3.4).
//
// A Thread must not be shared between goroutines.
type Thread struct {
	stm  *STM
	slot uint64

	// Domain config cached at registration (see STM.NewThread): consulted
	// on every transactional access, so it must live on the thread's own
	// hot line rather than behind the shared STM pointer.
	maxSpin    int
	yieldEvery int

	stats    Stats
	opReads  uint64 // transactional reads accumulated by the current operation
	rngState uint64 // xorshift state for backoff jitter
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
	// non-zero the lifecycle engine records one SpanAttempt per attempt
	// under it; lastCause remembers the most recent abort's cause so the
	// traced loop can label the span. Owner-goroutine only, like stats.
	tr        *obs.Tracer
	traceID   uint64
	traceOp   obs.OpKind
	lastCause AbortCause

	// snapTx is the descriptor of the thread's read-only Snapshot session
	// (snapshot.go), distinct from tx so a session can stay open across
	// ordinary Atomic/Prepare calls; snapLive guards the per-thread
	// singleton.
	snapTx   *Tx
	snapLive bool

	// Pending and OpCount implement the epoch scheme of §3.4: "each
	// application thread maintains a boolean indicating a pending operation
	// and a counter indicating the number of completed operations". The
	// maintenance thread snapshots them before a traversal and frees
	// garbage only once every thread has either completed an operation or
	// is observed idle.
	//
	// They are the only Thread fields read by other goroutines while the
	// owner is running, so they get a cache line of their own: without the
	// pads, every collector poll would steal the line holding the owner's
	// hot counters, and every owner update would invalidate the collector's
	// copy of whatever shared the line.
	_       cacheLinePad
	pending atomic.Bool
	opCount atomic.Uint64
	_       cacheLinePad

	// live mirrors the subset of stats that is scrapeable while the thread
	// runs (STM.LiveStats): the owner publishes each counter with a plain
	// atomic store right after bumping its plain twin — the completeOp
	// owner-local-mirror pattern, a MOV rather than a LOCK XADD on x86 — so
	// a /metrics scrape sums them race-free without pausing anything. Like
	// pending/opCount these are the only fields foreign goroutines read
	// while the owner is hot, hence their own padded region.
	live liveMirror
	_    cacheLinePad

	// tx is the reusable transaction descriptor. It is by far the largest
	// field (it embeds the inline read/write sets), so it sits after the
	// fields above have settled into the leading lines.
	tx Tx

	// snap and prep are the session and prepared-attempt handles NewSnapshot
	// and Prepare hand out: at most one of each exists per thread, so they
	// live here instead of on the heap — behind tx, where they move none of
	// the offsets above.
	snap Snapshot
	prep Prepared

	// spinExhausted is the live mirror of stats.SpinExhausted. It belongs
	// with live, but it is charged on a cold path only, and kept behind tx it
	// moves none of the offsets above: tx starts on a cache line (one more
	// word in live put it 8 B off, and paper-u20 lost ≈ 5 % on a 2-vCPU
	// host).
	spinExhausted atomic.Uint64
}

// completeOp counts one completed operation for the §3.4 collector. The
// published counter is only ever written by the owning goroutine, so a plain
// atomic store of an owner-local mirror replaces the read-modify-write an
// atomic increment would cost on the hot path.
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
	th.spinExhausted.Store(th.stats.SpinExhausted)
}

// MarkStructural marks this thread as a maintenance (structural) driver:
// from now on its commits and aborts are additionally counted in
// Stats.StructuralCommits/StructuralAborts. Call it once right after
// NewThread, before the thread runs transactions; it is not synchronized.
func (th *Thread) MarkStructural() { th.structural = true }

// Structural reports whether MarkStructural was called.
func (th *Thread) Structural() bool { return th.structural }

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
	ls.SpinExhausted = th.spinExhausted.Load()
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
// transaction commits; the delay between attempts is decided by the domain's
// ContentionManager (see the lifecycle engine in lifecycle.go). Within fn all
// shared state must be accessed through the transaction's Read/Write/URead
// methods.
// fn may be re-executed arbitrarily many times; it must be free of side
// effects other than transactional accesses and writes to captured locals
// that are re-assigned on every attempt. An attempt that is already doomed
// to fail commit-time validation (a "zombie") can observe states that no
// consistent snapshot contains — such as a freshly published node that
// contradicts earlier reads — so fn must treat impossible observations by
// calling Tx.Restart, never by panicking or looping on them.
//
// Atomic calls delimit "operations" for the purposes of Stats.MaxOpReads and
// of the §3.4 garbage-collection counters: the pending flag is raised for
// the duration of the call and the completed-operation counter is
// incremented on the way out. Nested calls panic: compose transactions by
// passing the *Tx value instead (that is precisely the reusability argument
// of paper §5.4).
func (th *Thread) AtomicMode(mode Mode, fn func(*Tx)) {
	if th.inAtomic {
		panic("stm: nested Atomic call; compose by passing *Tx instead")
	}
	th.inAtomic = true
	th.pending.Store(true)
	th.opReads = 0
	lc := lifecycle{th: th, mode: mode, fn: fn}
	lc.run()
	if th.opReads > th.stats.MaxOpReads {
		th.stats.MaxOpReads = th.opReads
	}
	th.completeOp()
	th.pending.Store(false)
	th.inAtomic = false
}

// AtomicRO runs fn as a read-only CTL transaction — an operation exactly as
// AtomicMode delimits one: pending raised for the §3.4 collector, reads
// counted towards Stats.Reads and MaxOpReads, one completed operation on
// the way out — whose first attempt is unlogged: Tx.Read samples each word
// as always (unlocked, with a stable meta) and accepts it iff its version is
// within the snapshot rv, but appends nothing to the read set. Write panics
// inside fn, as in a Snapshot session.
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
// word, not a held one, so the contention manager is not consulted. Under
// heavy writers the worst case is therefore what it was, plus one attempt
// that stopped at the first word newer than its snapshot.
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
			// locks behind, nor the writer gate held.
			tx.releaseLocks()
			th.releaseGate()
			panic(r)
		}
	}()
	fn(tx)
	if !tx.commit() {
		return false
	}
	tx.runOnCommitted()
	return true
}

// stall delays the thread for roughly d, yielding the processor instead of
// sleeping (on machines where goroutines outnumber processors a kernel sleep
// costs far more than the contention window it is meant to cover). The time
// actually spent is charged to Stats.BackoffNanos.
func (th *Thread) stall(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	start := time.Now()
	for {
		runtime.Gosched()
		if elapsed := time.Since(start); elapsed >= d {
			th.stats.BackoffNanos += uint64(elapsed)
			return
		}
	}
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
