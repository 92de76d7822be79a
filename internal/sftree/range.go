package sftree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// This file implements ordered range scans over the speculation-friendly
// tree: a bounded in-order traversal that visits every live key in
// [lo, hi] (inclusive) in ascending order, skipping logically deleted
// nodes. The scan reads the structure with the same transactional reads as
// find — every child pointer and every deleted flag on the visited frontier
// — so a committed scan is one consistent snapshot (exactly the discipline
// Size and Keys use, pruned to the requested interval). Inside an enclosing
// transaction (RangeTx) the reads join its read set; Range, a read-only
// transaction of its own, logs them only on a retry (stm.Thread.AtomicRO).
//
// Range, Size and Keys are txmap.Base's scans; this file supplies the
// RangeTx they run.
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
