package sftree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// find locates the node for key k: either the node whose key equals k, or
// the would-be parent of k (a node with a ⊥ child pointer on k's side). It
// dispatches on the tree variant.
//
// Note on the pseudocode: Algorithm 1 lines 19–20 and Algorithm 2 lines 39
// and 44–45 of the paper print the left/right choice inverted relative to
// Algorithm 2 lines 48–50, the insert code and the proofs ("its left child
// has range [−∞,k]"). We follow the proofs: smaller keys to the left. A
// hop that did not find k goes right exactly when k > key, and takes its
// child word from arena.Node.Child, which selects L or R by arithmetic: the
// direction of a uniform search is a coin flip, and a branch on it would be
// mispredicted on about half the hops.
func (t *Tree) find(tx *stm.Tx, k uint64) arena.Ref {
	if t.variant == Optimized {
		return t.findOptimized(tx, k)
	}
	return t.findPortable(tx, k)
}

// findPortable is paper Algorithm 1 lines 13–22: every child-pointer load is
// a transactional read, so the whole root-to-node path sits in the read set
// and any concurrent structural change along it invalidates the transaction
// at commit. Keys are immutable after insertion and are read plainly, as in
// the pseudocode.
func (t *Tree) findPortable(tx *stm.Tx, k uint64) arena.Ref {
	next := t.root
	var curr arena.Ref
	for {
		curr = next
		n := t.node(curr)
		val := n.Key.Plain()
		if val == k {
			break
		}
		next = tx.Read(n.Child(k > val))
		if next == arena.Nil {
			break
		}
	}
	return curr
}

// removedStep chooses the next hop from a physically removed node. The
// preferred direction is followed when possible, but a rotation-removed
// node keeps its pre-rotation children and the far-side one may be ⊥ —
// Lemma 16's second case — in which case the other child covers the whole
// range and must be taken instead. Both children ⊥ cannot occur (removals
// re-point both at the parent; rotations require the rising child), but the
// root is a safe restart if it ever did.
func (t *Tree) removedStep(tx *stm.Tx, n *arena.Node, preferLeft bool) arena.Ref {
	first, second := &n.L, &n.R
	if !preferLeft {
		first, second = &n.R, &n.L
	}
	if next := tx.URead(first); next != arena.Nil {
		return next
	}
	if next := tx.URead(second); next != arena.Nil {
		return next
	}
	return t.root
}

// findOptimized is paper Algorithm 2 lines 28–57: the descent uses unit
// reads, and transactional reads are performed only at the candidate node —
// on its removed flag, on the ⊥ child pointer when the search ends at a
// leaf, and on the parent's pointer to the candidate. A traversal preempted
// on a physically removed node recovers by following the node's child
// pointers, which removals re-point at the former parent and which rotations
// leave directed at live subtrees (Lemmas 13–16).
func (t *Tree) findOptimized(tx *stm.Tx, k uint64) arena.Ref {
	curr := t.root
	next := t.root
	for {
		var parent arena.Ref
	descend:
		for {
			parent = curr
			curr = next
			n := t.node(curr)
			val := n.Key.Plain()
			if val == k {
				rem := tx.Read(&n.Rem)
				if rem == arena.RemFalse {
					// Candidate found; the transactional read of Rem pins
					// the node in the tree until commit.
					break descend
				}
				// The node with our key was physically removed while we
				// were travelling. A node displaced by a left rotation is
				// replaced by a copy in its right subtree; every other
				// removal leaves the copy (or the range) to the left
				// (Lemma 13/14 and §3.3 "true by left rot").
				if rem == arena.RemTrueByLeftRot {
					next = t.removedStep(tx, n, false)
				} else {
					next = t.removedStep(tx, n, true)
				}
				continue
			}
			next = tx.URead(n.Child(k > val))
			if next != arena.Nil {
				continue
			}
			// Reached what looks like the insertion point: re-check with
			// transactional reads (Algorithm 2 lines 42–49).
			if tx.Read(&n.Rem) == arena.RemFalse {
				next = tx.Read(n.Child(k > val))
				if next == arena.Nil {
					// Leaf candidate: the ⊥ child pointer is now in the
					// read set, so a concurrent insert of k conflicts.
					break descend
				}
				// A node slipped in between the unit read and the
				// transactional read; keep descending.
				continue
			}
			// The node was removed under our feet; its child pointers now
			// lead back into the tree (removal re-points them at the old
			// parent; rotations keep them on live ranges).
			next = t.removedStep(tx, n, k < val)
		}
		if curr == t.root {
			// Only possible for an empty tree (the sentinel is its own
			// candidate); the sentinel is immutable so no parent check
			// applies.
			return curr
		}
		if parent == curr {
			// The descent restarted at this very node (see below) and it
			// is the candidate. Its pinned removed=false flag already
			// guarantees it is in the tree at commit time (Lemma 4), and
			// in the leaf case the ⊥ child pointer is pinned too, so the
			// parent-link re-check has nothing left to add.
			return curr
		}
		// Validate the parent link transactionally (Algorithm 2 lines
		// 50–56): the parent must still point at the candidate, which both
		// pins the candidate's position and forces the STM to validate.
		pn := t.node(parent)
		if tx.Read(pn.Child(t.node(curr).Key.Plain() > pn.Key.Plain())) == curr {
			return curr
		}
		// The parent no longer points at the candidate. Either the
		// candidate was just removed/copied (its removed flag will read
		// true — or trigger a validation abort — on re-examination), or
		// the remembered parent was itself removed while we crossed it.
		// Restart the descent *at* the parent: a removed node's child
		// pointers always lead back to live ranges (Lemma 11/16), so the
		// search converges instead of re-testing a stale pair forever.
		next = parent
		curr = parent
	}
}
