// Package avltree implements a transaction-based AVL tree in the style of
// the STAMP/synchrobench baseline the paper evaluates against: every update
// operation encapsulates all four phases of §2 — the abstraction
// modification, the structural adaptation, the threshold check and the
// rebalancing — in a single transaction. Rotations therefore happen inside
// the insert/delete transactions and can propagate from the modified leaf
// all the way to the root, which is exactly the conflict amplification the
// speculation-friendly tree removes.
//
// Keys and subtree heights are transactional (deletion replaces a node's
// key with its successor's), so traversals conflict with any restructuring
// on their path.
package avltree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/stm"
)

// Tree is a transactional AVL tree. The root reference itself is a
// transactional word: rotations at the top of the tree write it, making the
// root a genuine contention point, as in the baseline implementations.
type Tree struct {
	s  *stm.STM
	ar *arena.Arena

	root stm.Word // arena.Ref of the root node

	retired atomic.Uint64
}

// STM returns the domain the tree lives in.
func (t *Tree) STM() *stm.STM { return t.s }

// New creates an empty AVL tree on the given STM domain.
func New(s *stm.STM) *Tree {
	return &Tree{s: s, ar: arena.New()}
}

// Arena exposes the node arena for instrumentation.
func (t *Tree) Arena() *arena.Arena { return t.ar }

// Retired returns the number of physically deleted nodes. The baseline
// trees retire nodes without recycling them (safe reclamation would need
// the epoch machinery the speculation-friendly tree gets from its
// maintenance thread); this mirrors the benchmarked C baselines and bounds
// memory by the number of effective deletes in a run.
func (t *Tree) Retired() uint64 { return t.retired.Load() }

func (t *Tree) node(r arena.Ref) *arena.Node { return t.ar.Get(r) }

// height reads a subtree height (0 for ⊥). Heights are stored in Balance().
func (t *Tree) height(tx *stm.Tx, ref arena.Ref) uint64 {
	if ref == arena.Nil {
		return 0
	}
	return tx.Read(t.node(ref).Balance())
}

// fixHeight recomputes ref's height from its children, writing only on
// change to keep the write set minimal.
func (t *Tree) fixHeight(tx *stm.Tx, ref arena.Ref) {
	n := t.node(ref)
	lh := t.height(tx, tx.Read(&n.L))
	rh := t.height(tx, tx.Read(&n.R))
	h := 1 + lh
	if rh > lh {
		h = 1 + rh
	}
	if tx.Read(n.Balance()) != h {
		tx.Write(n.Balance(), h)
	}
}

// rotateRight rotates the subtree rooted at ref and returns the new root.
func (t *Tree) rotateRight(tx *stm.Tx, ref arena.Ref) arena.Ref {
	n := t.node(ref)
	lRef := tx.Read(&n.L)
	if lRef == arena.Nil {
		// A consistent snapshot never rotates towards a missing child;
		// this attempt is doomed (possible under relaxed read tracking).
		tx.Restart()
	}
	l := t.node(lRef)
	lr := tx.Read(&l.R)
	tx.Write(&n.L, lr)
	tx.Write(&l.R, ref)
	t.fixHeight(tx, ref)
	t.fixHeight(tx, lRef)
	return lRef
}

// rotateLeft is the mirror of rotateRight.
func (t *Tree) rotateLeft(tx *stm.Tx, ref arena.Ref) arena.Ref {
	n := t.node(ref)
	rRef := tx.Read(&n.R)
	if rRef == arena.Nil {
		tx.Restart() // doomed attempt: see rotateRight
	}
	r := t.node(rRef)
	rl := tx.Read(&r.L)
	tx.Write(&n.R, rl)
	tx.Write(&r.L, ref)
	t.fixHeight(tx, ref)
	t.fixHeight(tx, rRef)
	return rRef
}

// rebalance restores the AVL invariant at ref (|balance| <= 1), returning
// the subtree's new root. This is the paper's phases (3)+(4), executed
// inside the update transaction.
func (t *Tree) rebalance(tx *stm.Tx, ref arena.Ref) arena.Ref {
	t.fixHeight(tx, ref)
	n := t.node(ref)
	lRef := tx.Read(&n.L)
	rRef := tx.Read(&n.R)
	lh := t.height(tx, lRef)
	rh := t.height(tx, rRef)
	switch {
	case lh > rh+1:
		l := t.node(lRef)
		if t.height(tx, tx.Read(&l.R)) > t.height(tx, tx.Read(&l.L)) {
			tx.Write(&n.L, t.rotateLeft(tx, lRef))
		}
		return t.rotateRight(tx, ref)
	case rh > lh+1:
		r := t.node(rRef)
		if t.height(tx, tx.Read(&r.L)) > t.height(tx, tx.Read(&r.R)) {
			tx.Write(&n.R, t.rotateRight(tx, rRef))
		}
		return t.rotateLeft(tx, ref)
	}
	return ref
}

// Contains reports whether k is present.
func (t *Tree) Contains(th *stm.Thread, k uint64) bool {
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.ContainsTx(tx, k) })
	return ok
}

// ContainsTx is the composable form of Contains.
func (t *Tree) ContainsTx(tx *stm.Tx, k uint64) bool {
	_, ok := t.GetTx(tx, k)
	return ok
}

// Get returns the value mapped to k.
func (t *Tree) Get(th *stm.Thread, k uint64) (uint64, bool) {
	var v uint64
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { v, ok = t.GetTx(tx, k) })
	return v, ok
}

// GetTx is the composable form of Get.
func (t *Tree) GetTx(tx *stm.Tx, k uint64) (uint64, bool) {
	ref := tx.Read(&t.root)
	for ref != arena.Nil {
		n := t.node(ref)
		key := tx.Read(&n.Key)
		switch {
		case k == key:
			return tx.Read(&n.Val), true
		case k < key:
			ref = tx.Read(&n.L)
		default:
			ref = tx.Read(&n.R)
		}
	}
	return 0, false
}

// Insert maps k to v if absent, rebalancing within the same transaction.
func (t *Tree) Insert(th *stm.Thread, k, v uint64) bool {
	var sc arena.Scratch
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.InsertTx(tx, k, v, &sc) })
	sc.Release(t.ar)
	return ok
}

// InsertTx is the composable form of Insert.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64, sc *arena.Scratch) bool {
	sc.ResetAttempt()
	rootRef := tx.Read(&t.root)
	newRoot, added := t.insertRec(tx, rootRef, k, v, sc)
	if added && newRoot != rootRef {
		tx.Write(&t.root, newRoot)
	}
	return added
}

// InsertTxA is InsertTx with tree-managed allocation for deep composition;
// aborted linking attempts may leak one arena node each (see sftree).
func (t *Tree) InsertTxA(tx *stm.Tx, k, v uint64) bool {
	var sc arena.Scratch
	return t.InsertTx(tx, k, v, &sc)
}

// SetTx maps k to v within the enclosing transaction regardless of whether
// k is present (an upsert): a present node's value is overwritten in
// place, an absent key inserts. It is the native write-replay entry point
// of the cross-shard transaction coordinator (internal/ftx) — without it a
// buffered put replayed as delete+insert, paying a rebalancing deletion
// just to overwrite a value.
func (t *Tree) SetTx(tx *stm.Tx, k, v uint64) {
	ref := tx.Read(&t.root)
	for ref != arena.Nil {
		n := t.node(ref)
		key := tx.Read(&n.Key)
		switch {
		case k == key:
			tx.Write(&n.Val, v)
			return
		case k < key:
			ref = tx.Read(&n.L)
		default:
			ref = tx.Read(&n.R)
		}
	}
	t.InsertTxA(tx, k, v)
}

func (t *Tree) insertRec(tx *stm.Tx, ref arena.Ref, k, v uint64, sc *arena.Scratch) (arena.Ref, bool) {
	if ref == arena.Nil {
		r := sc.Take(t.ar, k, v)
		t.node(r).Balance().SetPlain(1) // height of a fresh leaf
		sc.MarkLinked()
		return r, true
	}
	n := t.node(ref)
	key := tx.Read(&n.Key)
	switch {
	case k == key:
		return ref, false
	case k < key:
		lRef := tx.Read(&n.L)
		nl, added := t.insertRec(tx, lRef, k, v, sc)
		if !added {
			return ref, false
		}
		if nl != lRef {
			tx.Write(&n.L, nl)
		}
		return t.rebalance(tx, ref), true
	default:
		rRef := tx.Read(&n.R)
		nr, added := t.insertRec(tx, rRef, k, v, sc)
		if !added {
			return ref, false
		}
		if nr != rRef {
			tx.Write(&n.R, nr)
		}
		return t.rebalance(tx, ref), true
	}
}

// Delete removes k, physically unlinking (or successor-replacing) the node
// and rebalancing, all inside one transaction.
func (t *Tree) Delete(th *stm.Thread, k uint64) bool {
	var ok bool
	t.atomic(th, func(tx *stm.Tx) { ok = t.DeleteTx(tx, k) })
	return ok
}

// DeleteTx is the composable form of Delete.
func (t *Tree) DeleteTx(tx *stm.Tx, k uint64) bool {
	rootRef := tx.Read(&t.root)
	newRoot, deleted := t.deleteRec(tx, rootRef, k)
	if deleted && newRoot != rootRef {
		tx.Write(&t.root, newRoot)
	}
	return deleted
}

func (t *Tree) deleteRec(tx *stm.Tx, ref arena.Ref, k uint64) (arena.Ref, bool) {
	if ref == arena.Nil {
		return arena.Nil, false
	}
	n := t.node(ref)
	key := tx.Read(&n.Key)
	switch {
	case k < key:
		lRef := tx.Read(&n.L)
		nl, deleted := t.deleteRec(tx, lRef, k)
		if !deleted {
			return ref, false
		}
		if nl != lRef {
			tx.Write(&n.L, nl)
		}
		return t.rebalance(tx, ref), true
	case k > key:
		rRef := tx.Read(&n.R)
		nr, deleted := t.deleteRec(tx, rRef, k)
		if !deleted {
			return ref, false
		}
		if nr != rRef {
			tx.Write(&n.R, nr)
		}
		return t.rebalance(tx, ref), true
	}
	// Found the node to delete.
	lRef := tx.Read(&n.L)
	rRef := tx.Read(&n.R)
	if lRef == arena.Nil || rRef == arena.Nil {
		t.retired.Add(1)
		child := lRef
		if child == arena.Nil {
			child = rRef
		}
		return child, true
	}
	// Two children: replace with the in-order successor (leftmost of the
	// right subtree) and delete the successor from it — the conflict-heavy
	// pattern §3.1's "Limitations" paragraph describes.
	succK, succV := t.minOf(tx, rRef)
	tx.Write(&n.Key, succK)
	tx.Write(&n.Val, succV)
	nr, _ := t.deleteRec(tx, rRef, succK)
	if nr != rRef {
		tx.Write(&n.R, nr)
	}
	return t.rebalance(tx, ref), true
}

// minOf returns the key and value of the leftmost node of the subtree.
func (t *Tree) minOf(tx *stm.Tx, ref arena.Ref) (uint64, uint64) {
	for {
		n := t.node(ref)
		l := tx.Read(&n.L)
		if l == arena.Nil {
			return tx.Read(&n.Key), tx.Read(&n.Val)
		}
		ref = l
	}
}

// Size counts elements in one transaction.
func (t *Tree) Size(th *stm.Thread) int {
	var c int
	t.atomic(th, func(tx *stm.Tx) {
		c = 0
		t.walk(tx, tx.Read(&t.root), func(*arena.Node) { c++ })
	})
	return c
}

// Keys returns the sorted key set in one transaction.
func (t *Tree) Keys(th *stm.Thread) []uint64 {
	var out []uint64
	t.atomic(th, func(tx *stm.Tx) {
		out = out[:0]
		t.walk(tx, tx.Read(&t.root), func(n *arena.Node) {
			out = append(out, tx.Read(&n.Key))
		})
	})
	return out
}

func (t *Tree) walk(tx *stm.Tx, ref arena.Ref, visit func(*arena.Node)) {
	if ref == arena.Nil {
		return
	}
	n := t.node(ref)
	t.walk(tx, tx.Read(&n.L), visit)
	visit(n)
	t.walk(tx, tx.Read(&n.R), visit)
}

// Range visits every element with key in [lo, hi] (inclusive) in ascending
// order; fn returning false stops the scan. It reports whether the scan ran
// to the end of the interval. The interval is snapshotted in one
// transaction and fn runs after it commits — once per element, never from
// an aborted attempt — so fn may accumulate state freely.
func (t *Tree) Range(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool {
	var buf [][2]uint64
	t.atomic(th, func(tx *stm.Tx) {
		buf = buf[:0]
		t.RangeTx(tx, lo, hi, func(k, v uint64) bool {
			buf = append(buf, [2]uint64{k, v})
			return true
		})
	})
	for _, e := range buf {
		if !fn(e[0], e[1]) {
			return false
		}
	}
	return true
}

// RangeTx is the composable form of Range. Unlike the speculation-friendly
// tree, keys here are transactional (deletion replaces them in place), so
// the bounded traversal reads each visited key through the STM.
func (t *Tree) RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	return t.rangeWalk(tx, tx.Read(&t.root), lo, hi, fn)
}

func (t *Tree) rangeWalk(tx *stm.Tx, ref arena.Ref, lo, hi uint64, fn func(k, v uint64) bool) bool {
	if ref == arena.Nil {
		return true
	}
	n := t.node(ref)
	k := tx.Read(&n.Key)
	if lo < k {
		if !t.rangeWalk(tx, tx.Read(&n.L), lo, hi, fn) {
			return false
		}
	}
	if lo <= k && k <= hi {
		if !fn(k, tx.Read(&n.Val)) {
			return false
		}
	}
	if k < hi {
		if !t.rangeWalk(tx, tx.Read(&n.R), lo, hi, fn) {
			return false
		}
	}
	return true
}

// CheckInvariants verifies (with plain reads; quiescent use only) that the
// tree is a valid BST, that every stored height is exact, and that every
// node satisfies the AVL balance condition.
func (t *Tree) CheckInvariants() error {
	_, err := t.checkRec(t.root.Plain(), 0, false, 0, false)
	return err
}

func (t *Tree) checkRec(ref arena.Ref, lo uint64, loSet bool, hi uint64, hiSet bool) (int, error) {
	if ref == arena.Nil {
		return 0, nil
	}
	n := t.node(ref)
	k := n.Key.Plain()
	if loSet && k <= lo {
		return 0, fmt.Errorf("key %d violates lower bound %d", k, lo)
	}
	if hiSet && k >= hi {
		return 0, fmt.Errorf("key %d violates upper bound %d", k, hi)
	}
	lh, err := t.checkRec(n.L.Plain(), lo, loSet, k, true)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkRec(n.R.Plain(), k, true, hi, hiSet)
	if err != nil {
		return 0, err
	}
	h := 1 + lh
	if rh > lh {
		h = 1 + rh
	}
	if int(n.Balance().Plain()) != h {
		return 0, fmt.Errorf("key %d stored height %d, actual %d", k, n.Balance().Plain(), h)
	}
	diff := lh - rh
	if diff < 0 {
		diff = -diff
	}
	if diff > 1 {
		return 0, fmt.Errorf("key %d violates AVL balance: %d vs %d", k, lh, rh)
	}
	return h, nil
}

// ElasticSafe reports that this tree must not run under elastic cutting:
// like the red-black baseline it mutates keys in place on deletion and
// rebalances inside the update transaction, so cut reads can commit
// structural corruption. See the rbtree package for the full argument.
func (t *Tree) ElasticSafe() bool { return false }

// atomic runs fn in the thread's default TM mode, demoted from Elastic to
// CTL (see ElasticSafe).
func (t *Tree) atomic(th *stm.Thread, fn func(*stm.Tx)) {
	mode := th.STM().DefaultMode()
	if mode == stm.Elastic {
		mode = stm.CTL
	}
	th.AtomicMode(mode, fn)
}
