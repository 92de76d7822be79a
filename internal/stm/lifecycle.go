package stm

import (
	"runtime"
	"time"
)

// The abort→retry path of an operation. AtomicMode drives it from its first
// attempt to its commit: begin → run → (commit | abort → pause → begin).
// Two aborts skip the pause: a read-only operation's unlogged first attempt
// giving its snapshot up (lostUnlogged), and a read-only operation that
// holds the writer gate (starving).

// gateRetries is the number of lost attempts after which a read-only
// operation takes the domain's writer gate (see STM.gate).
const gateRetries = 8

// starving is called after the retries-th aborted attempt. A read-only
// operation that has lost gateRetries attempts takes the writer gate; one
// that holds it retries at once, since every new writer now waits for it —
// a pause would only hold them longer.
func (th *Thread) starving(retries int) bool {
	if !th.tx.readOnly {
		return false
	}
	if retries == gateRetries {
		th.gated = true
		th.stm.gate.Add(1)
	}
	return th.gated
}

// lostUnlogged is called after an aborted attempt. It ends the unlogged
// phase of an AtomicRO call — every later attempt logs its reads and can
// extend — and reports whether the attempt was lost to that phase's own
// rule (a word newer than the snapshot, AbortUnlogged) rather than to a
// conflict: nobody holds anything the retry has to wait for, so it does
// not pause.
func (tx *Tx) lostUnlogged() bool {
	if !tx.unlogged {
		return false
	}
	tx.unlogged = false
	return tx.th.lastCause == AbortUnlogged
}

// pause is the wait between the retries-th aborted attempt and its retry:
// TinySTM's suicide contention manager, the one the paper's runs use. The
// loser retries almost at once, after a random spin of at most
// 2^min(retries-1,16) iterations and one scheduler yield. Its time is
// charged to Stats.BackoffNanos.
func (th *Thread) pause(retries int) {
	start := time.Now()
	spin := th.nextRand() % (1 << min(retries-1, 16))
	for i := uint64(0); i < spin; i++ {
		// Pure CPU delay; the loop body must not be optimizable away.
		th.rngState += i
	}
	runtime.Gosched()
	th.stats.BackoffNanos += uint64(time.Since(start))
}
