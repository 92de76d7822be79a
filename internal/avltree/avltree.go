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

	"repro/internal/arena"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// Tree is a transactional AVL tree. Its whole operations, lookup, upsert
// and range scan come from the embedded txmap.Coupled; the tree supplies
// InsertTx and DeleteTx with their rebalancing. The root reference itself
// is a transactional word: rotations at the top of the tree write it,
// making the root a genuine contention point, as in the baseline
// implementations.
type Tree struct {
	txmap.Coupled
}

// New creates an empty AVL tree on the given STM domain.
func New(s *stm.STM) *Tree {
	t := &Tree{}
	t.Init(t, s)
	return t
}

func (t *Tree) node(r arena.Ref) *arena.Node { return t.Nodes.Get(r) }

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

// InsertTx maps k to v if absent, rebalancing within the same
// transaction. The new node comes from tx.Alloc, so an attempt that does
// not commit gives it back.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64) bool {
	rootRef := tx.Read(&t.Root)
	newRoot, added := t.insertRec(tx, rootRef, k, v)
	if added && newRoot != rootRef {
		tx.Write(&t.Root, newRoot)
	}
	return added
}

func (t *Tree) insertRec(tx *stm.Tx, ref arena.Ref, k, v uint64) (arena.Ref, bool) {
	if ref == arena.Nil {
		r := tx.Alloc(t.Nodes, k, v)
		t.node(r).Balance().SetPlain(1) // height of a fresh leaf
		return r, true
	}
	n := t.node(ref)
	key := tx.Read(&n.Key)
	if k == key {
		return ref, false
	}
	w := n.Child(k > key)
	cRef := tx.Read(w)
	nc, added := t.insertRec(tx, cRef, k, v)
	if !added {
		return ref, false
	}
	if nc != cRef {
		tx.Write(w, nc)
	}
	return t.rebalance(tx, ref), true
}

// DeleteTx removes k, physically unlinking (or successor-replacing) the
// node and rebalancing, all inside one transaction.
func (t *Tree) DeleteTx(tx *stm.Tx, k uint64) bool {
	rootRef := tx.Read(&t.Root)
	newRoot, deleted := t.deleteRec(tx, rootRef, k)
	if deleted && newRoot != rootRef {
		tx.Write(&t.Root, newRoot)
	}
	return deleted
}

func (t *Tree) deleteRec(tx *stm.Tx, ref arena.Ref, k uint64) (arena.Ref, bool) {
	if ref == arena.Nil {
		return arena.Nil, false
	}
	n := t.node(ref)
	key := tx.Read(&n.Key)
	if k != key {
		w := n.Child(k > key)
		cRef := tx.Read(w)
		nc, deleted := t.deleteRec(tx, cRef, k)
		if !deleted {
			return ref, false
		}
		if nc != cRef {
			tx.Write(w, nc)
		}
		return t.rebalance(tx, ref), true
	}
	// Found the node to delete.
	lRef := tx.Read(&n.L)
	rRef := tx.Read(&n.R)
	if lRef == arena.Nil || rRef == arena.Nil {
		// The caller links child in n's place: n is unlinked, and the
		// thread's limbo frees it once no operation that could still hold
		// it is running (stm.Tx.Retire).
		tx.Retire(t.Nodes, ref)
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

// CheckInvariants verifies (with plain reads; quiescent use only) that the
// tree is a valid BST, that every stored height is exact, and that every
// node satisfies the AVL balance condition.
func (t *Tree) CheckInvariants() error {
	_, err := t.checkRec(t.Root.Plain(), 0, false, 0, false)
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
