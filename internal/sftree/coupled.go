package sftree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// This file implements the ablation of the paper's distributed rotation
// mechanism (§3.1): the same propagate/remove/rotate sweep as
// RunMaintenancePass, but with every structural change of the sweep
// encapsulated in one single transaction — the way a straightforwardly
// transactionalized rebalancer would do it, and exactly what the paper
// argues against:
//
//	"If local rotations are performed in a single transaction block then
//	 even the rotations that occur further down the tree will be part of a
//	 likely conflicting transaction."
//
// BenchmarkAblationMaintenanceCoupling compares the two under load: the
// coupled pass's read set covers the whole tree, so any concurrent update
// aborts it (or is aborted by it), while the distributed passes conflict
// only node-locally.

// RunMaintenancePassCoupled executes one maintenance sweep as a single
// transaction. It returns the number of structural changes performed plus
// the nodes freed. Like RunMaintenancePass it must only be driven by one
// goroutine at a time, and the nodes it unlinks go through the maintenance
// thread's §3.4 limbo.
func (t *Tree) RunMaintenancePassCoupled() int {
	var work, removed int
	t.maintTh.AtomicMode(stm.CTL, func(tx *stm.Tx) {
		removed = 0
		rootN := t.node(t.root)
		l := tx.Read(&rootN.L)
		nl, h, w := t.coupledRec(tx, l, &removed)
		if nl != l {
			tx.Write(&rootN.L, nl)
		}
		rootN.LeftH.Store(h)
		rootN.LocalH.Store(h + 1)
		work = w
	})
	t.removals.Add(uint64(removed))
	t.passes.Add(1)
	return work + t.reclaim()
}

// coupledRec rebalances the subtree in-transaction, returning the new
// subtree root, its exact height, and the structural work done; removed
// counts the nodes it unlinks and retires.
func (t *Tree) coupledRec(tx *stm.Tx, ref arena.Ref, removed *int) (arena.Ref, int32, int) {
	if ref == arena.Nil {
		return arena.Nil, 0, 0
	}
	n := t.node(ref)
	l := tx.Read(&n.L)
	r := tx.Read(&n.R)
	// Physical removal of logically deleted nodes with at most one child,
	// spliced directly in-transaction.
	if tx.Read(&n.Del) != 0 && (l == arena.Nil || r == arena.Nil) {
		child := l
		if child == arena.Nil {
			child = r
		}
		tx.Retire(t.ar, ref)
		*removed++
		nc, h, w := t.coupledRec(tx, child, removed)
		return nc, h, w + 1
	}
	nl, lh, lw := t.coupledRec(tx, l, removed)
	if nl != l {
		tx.Write(&n.L, nl)
	}
	nr, rh, rw := t.coupledRec(tx, r, removed)
	if nr != r {
		tx.Write(&n.R, nr)
	}
	work := lw + rw
	n.LeftH.Store(lh)
	n.RightH.Store(rh)
	n.LocalH.Store(1 + maxi32(lh, rh))

	switch {
	case lh > rh+1:
		lRef := tx.Read(&n.L)
		ln := t.node(lRef)
		llh, lrh := ln.LeftH.Load(), ln.RightH.Load()
		if lrh > llh {
			tx.Write(&n.L, t.coupledRotateLeft(tx, lRef))
			work++
		}
		root := t.coupledRotateRight(tx, ref)
		return root, t.heightOf(root), work + 1
	case rh > lh+1:
		rRef := tx.Read(&n.R)
		rn := t.node(rRef)
		rlh, rrh := rn.LeftH.Load(), rn.RightH.Load()
		if rlh > rrh {
			tx.Write(&n.R, t.coupledRotateRight(tx, rRef))
			work++
		}
		root := t.coupledRotateLeft(tx, ref)
		return root, t.heightOf(root), work + 1
	}
	return ref, 1 + maxi32(lh, rh), work
}

// coupledRotateRight is an in-place right rotation inside the caller's
// transaction, returning the risen node.
func (t *Tree) coupledRotateRight(tx *stm.Tx, ref arena.Ref) arena.Ref {
	n := t.node(ref)
	lRef := tx.Read(&n.L)
	l := t.node(lRef)
	lr := tx.Read(&l.R)
	tx.Write(&n.L, lr)
	tx.Write(&l.R, ref)
	n.LeftH.Store(t.heightOf(lr))
	n.LocalH.Store(1 + maxi32(n.LeftH.Load(), n.RightH.Load()))
	l.RightH.Store(n.LocalH.Load())
	l.LocalH.Store(1 + maxi32(l.LeftH.Load(), l.RightH.Load()))
	t.rotations.Add(1)
	return lRef
}

// coupledRotateLeft is the mirror of coupledRotateRight.
func (t *Tree) coupledRotateLeft(tx *stm.Tx, ref arena.Ref) arena.Ref {
	n := t.node(ref)
	rRef := tx.Read(&n.R)
	r := t.node(rRef)
	rl := tx.Read(&r.L)
	tx.Write(&n.R, rl)
	tx.Write(&r.L, ref)
	n.RightH.Store(t.heightOf(rl))
	n.LocalH.Store(1 + maxi32(n.LeftH.Load(), n.RightH.Load()))
	r.LeftH.Store(n.LocalH.Load())
	r.LocalH.Store(1 + maxi32(r.LeftH.Load(), r.RightH.Load()))
	t.rotations.Add(1)
	return rRef
}
