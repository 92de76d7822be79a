package stm

import "sync/atomic"

// A Word is one unit of transactional memory: a 64-bit value guarded by a
// versioned lock, the classical ownership-record layout of word-based STMs
// (TL2, TinySTM). The zero Word holds value 0 at version 0 and is ready for
// use, so Words embed naturally in node structures.
//
// meta encoding:
//
//	bit 0       locked flag
//	bits 1..63  if unlocked: version (timestamp of the last committed writer)
//	            if locked:   slot id of the owning thread
//
// Because versions come from a monotonically increasing global clock and
// slot ids are small constants per thread, a meta value can never be reused
// in a way that fools the compare-and-swap protocol (no ABA).
type Word struct {
	meta atomic.Uint64
	val  atomic.Uint64
}

const lockedBit = uint64(1)

func packVersion(ts uint64) uint64   { return ts << 1 }
func packLock(slot uint64) uint64    { return slot<<1 | lockedBit }
func isLocked(meta uint64) bool      { return meta&lockedBit != 0 }
func lockOwner(meta uint64) uint64   { return meta >> 1 }
func metaVersion(meta uint64) uint64 { return meta >> 1 }

// Plain returns the current value of the word with a single atomic load and
// no consistency guarantee whatsoever. It is intended for fields that are
// immutable after publication (for example node keys in the
// speculation-friendly tree) and for debug/statistics snapshots.
func (w *Word) Plain() uint64 { return w.val.Load() }

// SetPlain stores v directly, bypassing the transactional protocol. It must
// only be used to initialize a word before the enclosing structure is
// published to other threads (for example when preparing a freshly allocated
// tree node inside the transaction that will link it).
func (w *Word) SetPlain(v uint64) { w.val.Store(v) }

// relaxSink keeps cpuRelax's delay loop observable. The store is behind a
// branch that essentially never fires, so the hot path costs no memory
// traffic.
var relaxSink uint64

// cpuRelax burns roughly n cheap ALU iterations without touching shared
// memory — a portable stand-in for a PAUSE-style delay between re-polls of
// a contended cache line. The point is what it does NOT do: issue loads of
// the contended word, which would keep the owner's line bouncing.
func cpuRelax(n uint32) {
	acc := uint64(n) | 1
	for i := uint32(0); i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 0 {
		relaxSink = acc
	}
}

// fastSample is the one-shot unlocked sample: value and meta when the word
// is observed unlocked and stable on the first try — the overwhelmingly
// common case — and false otherwise. Small enough to inline into the read
// paths; contended words fall back to the budgeted sampleUnlocked spin.
func (w *Word) fastSample() (uint64, uint64, bool) {
	m1 := w.meta.Load()
	if !isLocked(m1) {
		v := w.val.Load()
		if w.meta.Load() == m1 {
			return v, m1, true
		}
	}
	return 0, 0, false
}

// maxSpin bounds the number of times a read re-samples a locked word (and
// an eager lock acquisition retries its CAS) before yielding the processor.
const maxSpin = 64

// sampleUnlocked spins until the word is observed unlocked with a stable
// meta, returning (value, meta). It re-samples at most maxSpin times; when
// that budget is exhausted the caller should yield (and charge
// Stats.SpinExhausted). The bool result reports success.
//
// While the word is locked the loop backs off with an exponentially growing
// pause between re-polls instead of hammering the owner's cache line with
// back-to-back loads — on real hardware each such load forces a coherence
// transition on the line the lock holder is about to write through.
func (w *Word) sampleUnlocked() (uint64, uint64, bool) {
	pause := uint32(4)
	for i := 0; i < maxSpin; i++ {
		m1 := w.meta.Load()
		if isLocked(m1) {
			cpuRelax(pause)
			if pause < 256 {
				pause <<= 1
			}
			continue
		}
		v := w.val.Load()
		m2 := w.meta.Load()
		if m1 == m2 {
			return v, m1, true
		}
	}
	return 0, 0, false
}
