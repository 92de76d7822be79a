package sftree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// This file implements ordered range scans over the speculation-friendly
// tree: a bounded in-order traversal that visits every live key in
// [lo, hi] (inclusive) in ascending order, skipping logically deleted
// nodes. Two disciplines are provided:
//
//   - RangeTx / Range read the structure with the same transactional reads
//     as find — every child pointer and every deleted flag on the visited
//     frontier — so a committed scan is one consistent snapshot (exactly
//     the discipline Size and Keys use, pruned to the requested interval).
//     Inside an enclosing transaction (RangeTx) the reads join its read
//     set; Range, a read-only transaction of its own, logs them only on a
//     retry (stm.Thread.AtomicRO).
//   - RangeElastic runs the scan as a read-only elastic transaction (the
//     paper's §4 / E-STM model): only a short hand-over-hand window of
//     trailing reads is validated and older reads are cut, so the scan
//     never causes — nor suffers — false conflicts from concurrent updates
//     outside its current window.
//
// Keys are immutable after insertion in this tree (successor replacement
// never happens; deletion is logical), so keys are read plainly, as in the
// find pseudocode.

// RangeTx visits, in ascending key order, every element whose key lies in
// [lo, hi] (both inclusive), calling fn(k, v) for each. fn returning false
// stops the scan early. RangeTx reports whether the scan ran to the end of
// the interval (true) or was stopped by fn (false). It is the composable
// form for use inside an enclosing transaction (paper §5.4's reusability).
func (t *Tree) RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	return t.rangeWalk(tx, tx.Read(&t.node(t.root).L), lo, hi, fn)
}

// rangeWalk performs the bounded in-order traversal: subtrees whose key
// interval cannot intersect [lo, hi] are pruned (the BST invariant makes
// the pruning exact on a consistent snapshot), so the transactional read
// set is O(log n + r) for r reported elements rather than O(n).
func (t *Tree) rangeWalk(tx *stm.Tx, r arena.Ref, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if r == arena.Nil {
		return true
	}
	n := t.node(r)
	k := n.Key.Plain()
	if lo < k {
		if !t.rangeWalk(tx, tx.Read(&n.L), lo, hi, fn) {
			return false
		}
	}
	if lo <= k && k <= hi {
		if tx.Read(&n.Del) == 0 {
			if !fn(k, tx.Read(&n.Val)) {
				return false
			}
		}
	}
	if k < hi {
		if !t.rangeWalk(tx, tx.Read(&n.R), lo, hi, fn) {
			return false
		}
	}
	return true
}

// Range visits every element with key in [lo, hi] in ascending order,
// calling fn(k, v) for each; fn returning false stops the scan. It reports
// whether the scan ran to the end of the interval. The reported elements
// form one consistent snapshot of the interval even when the domain
// defaults to elastic transactions: like Size and Keys it runs as a
// read-only CTL transaction (stm.Thread.AtomicRO), whose first attempt
// logs no reads — it holds the snapshot it began with or gives up at the
// first word newer than it — and whose retry is the fully logged scan with
// timestamp extension.
//
// The interval is snapshotted inside the transaction and fn is invoked
// after it commits — exactly once per element, never from an aborted
// attempt — so fn may freely accumulate state and perform side effects
// (unlike a callback passed to RangeTx, which runs inside the transaction
// and is re-executed on retry), including further operations on the same
// thread.
func (t *Tree) Range(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool {
	f := t.frame(th)
	f.snapshot(th, lo, hi)
	return f.feed(fn)
}

// RangeElastic is Range under the elastic (E-STM) read discipline of the
// paper's §4: the traversal validates only the hand-over-hand window of
// trailing reads and cuts everything older, so a long scan neither aborts on
// nor invalidates concurrent updates to parts of the interval it has already
// passed. The price is the snapshot guarantee: the reported elements reflect
// a mixture of tree states, and a scan racing concurrent rotations can miss
// or duplicate keys near the rotation point. Use it for cheap approximate
// scans (monitoring, sampling, load estimation); use Range when the result
// must be a consistent snapshot.
//
// The elastic discipline is only sound for the Portable variant (see
// ElasticSafe); on the Optimized variant — whose traversals already run on
// unit reads and gain nothing from cutting — RangeElastic is Range.
func (t *Tree) RangeElastic(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if t.variant == Optimized {
		return t.Range(th, lo, hi, fn)
	}
	f := t.frame(th)
	f.lo, f.hi = lo, hi
	th.AtomicMode(stm.Elastic, f.rangeFn)
	return f.feed(fn)
}

// runRange is the scans' transaction body: it collects the frame's interval
// into the frame's buffer, resetting it on every attempt so only the
// committed attempt's elements survive.
func (f *opFrame) runRange(tx *stm.Tx) {
	f.buf = f.buf[:0]
	f.t.RangeTx(tx, f.lo, f.hi, f.collectFn)
}

func (f *opFrame) collect(k, v uint64) bool {
	f.buf = append(f.buf, [2]uint64{k, v})
	return true
}

// keepScanBuf bounds, in elements, the snapshot buffer a frame keeps between
// scans (64 KB): the frame lives as long as the tree, and one whole-tree
// Ascend must not pin a copy of the tree to every thread that ran one.
const keepScanBuf = 1 << 12

// snapshot runs the frame's scan of [lo, hi] as one read-only transaction.
func (f *opFrame) snapshot(th *stm.Thread, lo, hi uint64) {
	f.lo, f.hi = lo, hi
	th.AtomicRO(f.rangeFn)
}

// takeBuf removes the committed snapshot from the frame and putBuf returns
// its storage. fn runs between the two and may scan again on this very
// thread: with the buffer out of the frame the nested scan grows one of its
// own instead of overwriting the elements still being fed.
func (f *opFrame) takeBuf() [][2]uint64 {
	buf := f.buf
	f.buf = nil
	return buf
}

func (f *opFrame) putBuf(buf [][2]uint64) {
	if cap(buf) <= keepScanBuf {
		f.buf = buf[:0]
	}
}

// feed replays the committed snapshot into fn, honoring early stop.
func (f *opFrame) feed(fn func(k, v uint64) bool) bool {
	buf := f.takeBuf()
	done := true
	for _, e := range buf {
		if !fn(e[0], e[1]) {
			done = false
			break
		}
	}
	f.putBuf(buf)
	return done
}

// EmptyHint reports, from one plain read, whether the tree was just observed
// to hold no nodes at all (every user node hangs off the sentinel's left
// child). A true result is a legitimate instantaneous snapshot — "empty at
// the moment of the load" — that read-only scans may use to skip the tree
// without opening a transaction; false means nothing (nodes present, or a
// concurrent insert in flight).
func (t *Tree) EmptyHint() bool {
	return t.node(t.root).L.Plain() == arena.Nil
}
