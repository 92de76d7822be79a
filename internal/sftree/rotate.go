package sftree

import (
	"repro/internal/arena"
	"repro/internal/stm"
)

// This file implements the structural transactions: node-local rotations and
// physical removals, in both the portable form (Algorithm 1, lines 45–59 and
// 71–86) and the optimized form (Algorithm 2). Each runs as a single small
// transaction on the maintenance thread; balance estimates are advisory
// node-local atomics updated alongside (the paper's update-balance-values).

// heightOf returns the local height estimate of a subtree root (0 for ⊥).
func (t *Tree) heightOf(r arena.Ref) int32 {
	if r == arena.Nil {
		return 0
	}
	return t.node(r).LocalH.Load()
}

func maxi32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// setChildHeight refreshes parent's estimate for one child subtree.
func setChildHeight(p *arena.Node, leftChild bool, h int32) {
	if leftChild {
		p.LeftH.Store(h)
	} else {
		p.RightH.Store(h)
	}
	p.LocalH.Store(1 + maxi32(p.LeftH.Load(), p.RightH.Load()))
}

// rotateRight performs one right rotation of the child of parent designated
// by leftChild, dispatching on the tree variant. It reports whether the
// rotation committed with effect.
func (t *Tree) rotateRight(parentRef arena.Ref, leftChild bool) bool {
	var ok bool
	if t.variant == Optimized {
		ok = t.rotateOpt(parentRef, leftChild, false)
	} else {
		ok = t.rotatePortable(parentRef, leftChild, false)
	}
	if ok {
		t.rotations.Add(1)
	} else {
		t.failedRot.Add(1)
	}
	return ok
}

// rotateLeft is the mirror of rotateRight.
func (t *Tree) rotateLeft(parentRef arena.Ref, leftChild bool) bool {
	var ok bool
	if t.variant == Optimized {
		ok = t.rotateOpt(parentRef, leftChild, true)
	} else {
		ok = t.rotatePortable(parentRef, leftChild, true)
	}
	if ok {
		t.rotations.Add(1)
	} else {
		t.failedRot.Add(1)
	}
	return ok
}

// rotatePortable is Algorithm 1's in-place rotation (right rotation shown in
// the paper; left is the mirror). The rotated node n stays in the tree with
// its subtree re-hung, so concurrent portable traversals — whose whole path
// is in their read set — are invalidated rather than misled.
func (t *Tree) rotatePortable(parentRef arena.Ref, leftChild, mirror bool) bool {
	o := &t.sop
	o.parent, o.left, o.mirror = parentRef, leftChild, mirror
	t.maintTh.AtomicMode(stm.CTL, t.rotateFn)
	return o.ok
}

// rotatePortableTx is the body of rotatePortable, acting on t.sop.
func (t *Tree) rotatePortableTx(tx *stm.Tx) {
	o := &t.sop
	parentRef, leftChild := o.parent, o.left
	o.ok = false
	p := t.node(parentRef)
	var nRef arena.Ref
	if leftChild {
		nRef = tx.Read(&p.L)
	} else {
		nRef = tx.Read(&p.R)
	}
	if nRef == arena.Nil {
		return
	}
	n := t.node(nRef)
	if !o.mirror {
		// Right rotation: the left child l rises.
		lRef := tx.Read(&n.L)
		if lRef == arena.Nil {
			return
		}
		l := t.node(lRef)
		lrRef := tx.Read(&l.R)
		tx.Write(&n.L, lrRef)
		tx.Write(&l.R, nRef)
		if leftChild {
			tx.Write(&p.L, lRef)
		} else {
			tx.Write(&p.R, lRef)
		}
		// update-balance-values (paper line 57).
		n.LeftH.Store(t.heightOf(lrRef))
		n.LocalH.Store(1 + maxi32(n.LeftH.Load(), n.RightH.Load()))
		l.RightH.Store(n.LocalH.Load())
		l.LocalH.Store(1 + maxi32(l.LeftH.Load(), l.RightH.Load()))
		setChildHeight(p, leftChild, l.LocalH.Load())
	} else {
		// Left rotation: the right child r rises.
		rRef := tx.Read(&n.R)
		if rRef == arena.Nil {
			return
		}
		r := t.node(rRef)
		rlRef := tx.Read(&r.L)
		tx.Write(&n.R, rlRef)
		tx.Write(&r.L, nRef)
		if leftChild {
			tx.Write(&p.L, rRef)
		} else {
			tx.Write(&p.R, rRef)
		}
		n.RightH.Store(t.heightOf(rlRef))
		n.LocalH.Store(1 + maxi32(n.LeftH.Load(), n.RightH.Load()))
		r.LeftH.Store(n.LocalH.Load())
		r.LocalH.Store(1 + maxi32(r.LeftH.Load(), r.RightH.Load()))
		setChildHeight(p, leftChild, r.LocalH.Load())
	}
	o.ok = true
}

// rotateOpt is Algorithm 2's rotation (§3.3, Figure 2(c)): instead of
// re-hanging the rotated node n in place, n is unlinked, a fresh copy n'
// takes its position under the risen child, and n keeps its old child
// pointers so a traversal preempted on n still has a path to every key it
// could reach before (Lemmas 13–14). n's removed flag is set to true — or
// true-by-left-rotate for the mirror — so the optimized find knows to
// reroute, and n is retired.
func (t *Tree) rotateOpt(parentRef arena.Ref, leftChild, mirror bool) bool {
	o := &t.sop
	o.parent, o.left, o.mirror = parentRef, leftChild, mirror
	t.maintTh.AtomicMode(stm.CTL, t.rotateFn)
	return o.ok
}

// rotateOptTx is the body of rotateOpt, acting on t.sop. The copy n' comes
// from tx.Alloc and n goes to tx.Retire, so an attempt that does not commit
// gives the copy back and keeps n.
func (t *Tree) rotateOptTx(tx *stm.Tx) {
	o := &t.sop
	parentRef, leftChild := o.parent, o.left
	o.ok = false
	p := t.node(parentRef)
	if tx.Read(&p.Rem) != arena.RemFalse {
		return
	}
	var nRef arena.Ref
	if leftChild {
		nRef = tx.Read(&p.L)
	} else {
		nRef = tx.Read(&p.R)
	}
	if nRef == arena.Nil {
		return
	}
	n := t.node(nRef)
	if !o.mirror {
		// Right rotation: l rises; n' = copy of n with children (l.R, n.R)
		// becomes l's right child.
		lRef := tx.Read(&n.L)
		if lRef == arena.Nil {
			return
		}
		l := t.node(lRef)
		lrRef := tx.Read(&l.R)
		rRef := tx.Read(&n.R)
		copyRef := tx.Alloc(t.ar, n.Key.Plain(), tx.Read(&n.Val))
		sn := t.node(copyRef)
		sn.Del.SetPlain(tx.Read(&n.Del))
		sn.L.SetPlain(lrRef)
		sn.R.SetPlain(rRef)
		sn.LeftH.Store(t.heightOf(lrRef))
		sn.RightH.Store(t.heightOf(rRef))
		sn.LocalH.Store(1 + maxi32(sn.LeftH.Load(), sn.RightH.Load()))
		tx.Write(&l.R, copyRef)
		tx.Write(&n.Rem, arena.RemTrue)
		if leftChild {
			tx.Write(&p.L, lRef)
		} else {
			tx.Write(&p.R, lRef)
		}
		l.RightH.Store(sn.LocalH.Load())
		l.LocalH.Store(1 + maxi32(l.LeftH.Load(), l.RightH.Load()))
		setChildHeight(p, leftChild, l.LocalH.Load())
	} else {
		// Left rotation: r rises; n' with children (n.L, r.L) becomes
		// r's left child; n is marked true-by-left-rotate so an equal-key
		// traversal preempted on n goes right to reach n' (§3.3).
		rRef := tx.Read(&n.R)
		if rRef == arena.Nil {
			return
		}
		r := t.node(rRef)
		rlRef := tx.Read(&r.L)
		lRef := tx.Read(&n.L)
		copyRef := tx.Alloc(t.ar, n.Key.Plain(), tx.Read(&n.Val))
		sn := t.node(copyRef)
		sn.Del.SetPlain(tx.Read(&n.Del))
		sn.L.SetPlain(lRef)
		sn.R.SetPlain(rlRef)
		sn.LeftH.Store(t.heightOf(lRef))
		sn.RightH.Store(t.heightOf(rlRef))
		sn.LocalH.Store(1 + maxi32(sn.LeftH.Load(), sn.RightH.Load()))
		tx.Write(&r.L, copyRef)
		tx.Write(&n.Rem, arena.RemTrueByLeftRot)
		if leftChild {
			tx.Write(&p.L, rRef)
		} else {
			tx.Write(&p.R, rRef)
		}
		r.LeftH.Store(sn.LocalH.Load())
		r.LocalH.Store(1 + maxi32(r.LeftH.Load(), r.RightH.Load()))
		setChildHeight(p, leftChild, r.LocalH.Load())
	}
	tx.Retire(t.ar, nRef)
	o.ok = true
}

// removeChild physically removes parent's designated child if it is
// logically deleted and has at most one child, returning the replacement
// subtree, the removed node and whether the removal took effect.
func (t *Tree) removeChild(parentRef arena.Ref, leftChild bool) (arena.Ref, arena.Ref, bool) {
	var repl, removed arena.Ref
	var ok bool
	if t.variant == Optimized {
		repl, removed, ok = t.removeOpt(parentRef, leftChild)
	} else {
		repl, removed, ok = t.removePortable(parentRef, leftChild)
	}
	if ok {
		t.removals.Add(1)
	} else {
		t.failedRemove.Add(1)
	}
	return repl, removed, ok
}

// removePortable is Algorithm 1's remove (lines 71–86, with the obvious
// correction that the surviving child — not the second read — is linked):
// unlink a logically deleted node with at most one child by pointing the
// parent at that child.
func (t *Tree) removePortable(parentRef arena.Ref, leftChild bool) (arena.Ref, arena.Ref, bool) {
	o := &t.sop
	o.parent, o.left = parentRef, leftChild
	t.maintTh.AtomicMode(stm.CTL, t.removeFn)
	return o.repl, o.removed, o.ok
}

// removePortableTx is the body of removePortable, acting on t.sop.
func (t *Tree) removePortableTx(tx *stm.Tx) {
	o := &t.sop
	parentRef, leftChild := o.parent, o.left
	o.repl, o.removed, o.ok = arena.Nil, arena.Nil, false
	p := t.node(parentRef)
	var nRef arena.Ref
	if leftChild {
		nRef = tx.Read(&p.L)
	} else {
		nRef = tx.Read(&p.R)
	}
	if nRef == arena.Nil {
		return
	}
	n := t.node(nRef)
	if tx.Read(&n.Del) == 0 {
		return
	}
	child := tx.Read(&n.L)
	if child != arena.Nil {
		if tx.Read(&n.R) != arena.Nil {
			return // two children: never removed physically (§3.3)
		}
	} else {
		child = tx.Read(&n.R)
	}
	if leftChild {
		tx.Write(&p.L, child)
	} else {
		tx.Write(&p.R, child)
	}
	setChildHeight(p, leftChild, t.heightOf(child))
	tx.Retire(t.ar, nRef)
	o.repl, o.removed, o.ok = child, nRef, true
}

// removeOpt is Algorithm 2's remove: in addition to unlinking, the removed
// node's child pointers are re-pointed at its former parent (lines 22–23) so
// a traversal preempted on it has a way back into the tree, and its removed
// flag is raised (line 24).
func (t *Tree) removeOpt(parentRef arena.Ref, leftChild bool) (arena.Ref, arena.Ref, bool) {
	o := &t.sop
	o.parent, o.left = parentRef, leftChild
	t.maintTh.AtomicMode(stm.CTL, t.removeFn)
	return o.repl, o.removed, o.ok
}

// removeOptTx is the body of removeOpt, acting on t.sop.
func (t *Tree) removeOptTx(tx *stm.Tx) {
	o := &t.sop
	parentRef, leftChild := o.parent, o.left
	o.repl, o.removed, o.ok = arena.Nil, arena.Nil, false
	p := t.node(parentRef)
	if tx.Read(&p.Rem) != arena.RemFalse {
		return
	}
	var nRef arena.Ref
	if leftChild {
		nRef = tx.Read(&p.L)
	} else {
		nRef = tx.Read(&p.R)
	}
	if nRef == arena.Nil {
		return
	}
	n := t.node(nRef)
	if tx.Read(&n.Del) == 0 {
		return
	}
	child := tx.Read(&n.L)
	if child != arena.Nil {
		if tx.Read(&n.R) != arena.Nil {
			return
		}
	} else {
		child = tx.Read(&n.R)
	}
	if leftChild {
		tx.Write(&p.L, child)
	} else {
		tx.Write(&p.R, child)
	}
	tx.Write(&n.L, parentRef)
	tx.Write(&n.R, parentRef)
	tx.Write(&n.Rem, arena.RemTrue)
	setChildHeight(p, leftChild, t.heightOf(child))
	tx.Retire(t.ar, nRef)
	o.repl, o.removed, o.ok = child, nRef, true
}
