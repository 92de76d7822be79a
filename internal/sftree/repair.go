package sftree

import "repro/internal/arena"

// This file implements targeted repairs: the hint-driven replacement for
// whole-tree maintenance sweeps. A repair descends from the root to the
// hinted key with plain reads (legal under the single-maintenance-driver
// discipline, exactly like maintain's traversal), physically removes the
// hinted node when it is logically deleted with at most one child, and then
// walks the recorded path bottom-up, refreshing each node's height
// estimates from its children and rotating where the estimates differ by
// more than one. Every structural change is its own small transaction
// (rotate.go), so a repair conflicts with application transactions exactly
// as narrowly as a sweep does — it just skips the O(n) walk over the parts
// of the tree nobody touched.

// pathEnt addresses one step of a recorded descent: the node is the child
// of parent on the side given by leftChild. Entries never store the child
// ref itself — rotations (and, in the optimized variant, copy-on-rotate
// removals) can replace the child, so each consumer reloads it from the
// parent.
type pathEnt struct {
	parent    arena.Ref
	leftChild bool
}

// repairAt performs one targeted repair around key k and returns the
// structural work done (rotations + removals). Single-driver, like
// RunMaintenancePass.
func (t *Tree) repairAt(k uint64) int {
	// Descend, recording the path. The traversal reads the structure with
	// plain loads: only this maintenance driver unlinks nodes, so the path
	// stays resolvable, and every modification re-validates transactionally.
	path := t.repairPath[:0]
	parent, leftChild := t.root, true
	ref := t.node(t.root).L.Plain()
	for ref != arena.Nil {
		path = append(path, pathEnt{parent: parent, leftChild: leftChild})
		n := t.node(ref)
		key := n.Key.Plain()
		if key == k {
			break
		}
		if k < key {
			parent, leftChild, ref = ref, true, n.L.Plain()
		} else {
			parent, leftChild, ref = ref, false, n.R.Plain()
		}
	}
	t.repairPath = path // keep the grown capacity for the next repair

	work := 0
	// Targeted removal (§3.2): the hinted node, when found logically
	// deleted with at most one child, is unlinked here and now instead of
	// waiting for the next sweep to stumble over it.
	if ref != arena.Nil {
		n := t.node(ref)
		if n.Del.Plain() != 0 {
			l, r := n.L.Plain(), n.R.Plain()
			if l == arena.Nil || r == arena.Nil {
				if _, _, ok := t.removeChild(parent, leftChild); ok {
					work++
				}
			}
		}
	}
	// Bottom-up pass over the path: propagate heights and rebalance. This
	// is the §3.1 propagate/rotate confined to the root-to-key path — the
	// only region whose estimates the committed operation can have staled.
	for i := len(path) - 1; i >= 0; i-- {
		work += t.settle(path[i].parent, path[i].leftChild)
	}
	return work
}

// settle refreshes the height estimates of parent's child on the given side
// from that child's own children, rebalances it when the refreshed
// estimates differ by more than one, and re-propagates the resulting height
// into the parent. It returns the structural work done.
func (t *Tree) settle(parentRef arena.Ref, leftChild bool) int {
	p := t.node(parentRef)
	var ref arena.Ref
	if leftChild {
		ref = p.L.Plain()
	} else {
		ref = p.R.Plain()
	}
	if ref == arena.Nil {
		setChildHeight(p, leftChild, 0)
		return 0
	}
	n := t.node(ref)
	lh, rh := t.heightOf(n.L.Plain()), t.heightOf(n.R.Plain())
	setHeights(n, lh, rh)
	work := t.rebalance(parentRef, leftChild, ref, lh, rh)
	// The child may have been replaced by a rotation; propagate the height
	// of whatever hangs there now.
	if leftChild {
		ref = p.L.Plain()
	} else {
		ref = p.R.Plain()
	}
	setChildHeight(p, leftChild, t.heightOf(ref))
	return work
}

// rebalance applies the distributed-rotation decision of §3.1 to ref (the
// child of parentRef on the side leftChild, whose estimated child heights
// are lh and rh): when the estimates differ by more than one, rotate — a
// double rotation expressed as two node-local single rotations, each its
// own transaction. It returns the number of rotations that committed.
func (t *Tree) rebalance(parentRef arena.Ref, leftChild bool, ref arena.Ref, lh, rh int32) int {
	work := 0
	n := t.node(ref)
	switch {
	case lh > rh+1:
		if l := n.L.Plain(); l != arena.Nil {
			ln := t.node(l)
			if ln.RightH.Load() > ln.LeftH.Load() {
				if t.rotateLeft(ref, true) {
					work++
				}
			}
			if t.rotateRight(parentRef, leftChild) {
				work++
			}
		}
	case rh > lh+1:
		if r := n.R.Plain(); r != arena.Nil {
			rn := t.node(r)
			if rn.LeftH.Load() > rn.RightH.Load() {
				if t.rotateRight(ref, false) {
					work++
				}
			}
			if t.rotateLeft(parentRef, leftChild) {
				work++
			}
		}
	}
	return work
}
