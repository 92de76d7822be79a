package stm

import (
	"time"

	"repro/internal/obs"
)

// The transaction-lifecycle engine: drives one operation (one
// Atomic/AtomicMode call) from its first attempt to its commit, consulting
// the domain's ContentionManager between attempts. It was extracted from the
// original Thread.AtomicMode retry loop so that the abort→retry path is a
// pluggable policy rather than a hard-coded backoff. The cycle is
// begin → run → (commit | abort → contention-manager stall → begin). The one
// abort that skips the stall is a read-only operation's unlogged first
// attempt giving its snapshot up (lostUnlogged).
//
// lifecycle lives on the thread's stack for the duration of one AtomicMode
// call.
type lifecycle struct {
	th      *Thread
	mode    Mode
	fn      func(*Tx)
	retries int // aborted attempts so far
}

// run drives the operation to commit. On every abort it charges one retry to
// the thread's statistics and hands control to the contention manager, whose
// stall is the only wait in the loop.
func (lc *lifecycle) run() {
	th := lc.th
	if th.traceID != 0 {
		lc.runTraced()
		return
	}
	tx := &th.tx
	cm := th.stm.cm
	for {
		if !tx.readOnly && th.stm.gate.Load() != 0 {
			th.waitGate()
		}
		tx.begin(lc.mode)
		if th.runAttempt(tx, lc.fn) {
			return
		}
		lc.retries++
		th.noteRetry()
		if tx.lostUnlogged() || lc.starving() {
			continue
		}
		cm.OnAbort(th, lc.retries)
	}
}

// gateRetries is the number of lost attempts after which a read-only
// operation takes the domain's writer gate (see STM.gate).
const gateRetries = 8

// starving is called after an aborted attempt. A read-only operation that
// has lost gateRetries attempts takes the writer gate; one that holds it
// retries at once, since every new writer now waits for it — the
// contention manager's stall would only hold them longer.
func (lc *lifecycle) starving() bool {
	th := lc.th
	if !th.tx.readOnly {
		return false
	}
	if lc.retries == gateRetries {
		th.gated = true
		th.stm.gate.Add(1)
	}
	return th.gated
}

// lostUnlogged is called after an aborted attempt. It ends the unlogged
// phase of an AtomicRO call — every later attempt logs its reads and can
// extend — and reports whether the attempt was lost to that phase's own
// rule (a word newer than the snapshot, AbortUnlogged) rather than to a
// conflict: nobody holds anything the retry has to wait for, so the
// contention manager is not consulted.
func (tx *Tx) lostUnlogged() bool {
	if !tx.unlogged {
		return false
	}
	tx.unlogged = false
	return tx.th.lastCause == AbortUnlogged
}

// runTraced is the sampled-op variant of run: identical control flow plus
// one SpanAttempt per attempt (A = -1 for the committing attempt, otherwise
// the abort cause; B = the attempt index). It is a separate loop so the
// untraced path — the overwhelmingly common one — pays exactly one branch.
// time.Now and Tracer.Record never allocate, keeping AllocsPerRun=0 on the
// sampled path too.
func (lc *lifecycle) runTraced() {
	th := lc.th
	tx := &th.tx
	cm := th.stm.cm
	tr, id, op := th.tr, th.traceID, th.traceOp
	for {
		if !tx.readOnly && th.stm.gate.Load() != 0 {
			th.waitGate()
		}
		start := time.Now().UnixNano()
		tx.begin(lc.mode)
		if th.runAttempt(tx, lc.fn) {
			tr.Record(id, obs.SpanAttempt, op, start, time.Now().UnixNano(), -1, int64(lc.retries))
			return
		}
		tr.Record(id, obs.SpanAttempt, op, start, time.Now().UnixNano(), int64(th.lastCause), int64(lc.retries))
		lc.retries++
		th.noteRetry()
		if tx.lostUnlogged() || lc.starving() {
			continue
		}
		cm.OnAbort(th, lc.retries)
	}
}
