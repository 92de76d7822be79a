package sftree

import (
	"runtime"

	"repro/internal/arena"
)

// maintYieldStride bounds how many nodes a maintenance traversal visits
// before yielding the processor. Without it, a long depth-first pass can
// monopolize whole scheduler quanta on hosts with few cores while the
// application threads (which block on transactional conflicts and yields)
// starve — the pass itself is cheap, but it must stay interleaved.
const maintYieldStride = 64

// This file implements the maintenance ("rotator") side of the paper
// (§3): one depth-first sweep of the whole tree that propagates height
// estimates (§3.1), physically removes logically deleted nodes with at most
// one child (§3.2) and performs node-local rotations (§3.1), each
// structural change its own small transaction, then steps the maintenance
// thread's limbo, which frees unlinked nodes with the §3.4 epoch scheme.
//
// A Driver (driver.go) runs the sweep: one worker for a standalone tree,
// a shared pool for the shards of a forest.

// RunMaintenancePass executes one full maintenance traversal synchronously:
// one depth-first propagate/remove/rotate sweep, then one step of the
// maintenance thread's limbo (stm.Thread.Reclaim), which frees what the
// sweeps retired once no operation running at its unlink remains. It
// returns the amount of structural work done (rotations + removals + nodes
// freed); a return of 0 means the tree was balanced, fully unlinked and
// garbage-free. It must not run beside a Driver over the tree (Pause it
// first) or another pass. A pass costs one visit per reachable node, each
// a dependent cache miss on a tree beyond cache, partly overlapped by the
// touch of the right child (maintain).
func (t *Tree) RunMaintenancePass() int {
	return t.sweep() + t.reclaim()
}

// sweep is the depth-first walk of one pass, counted in Stats.Passes. It
// returns the rotations and removals it made.
func (t *Tree) sweep() int {
	rootN := t.node(t.root)
	h, work := t.maintain(t.root, true, rootN.L.Plain())
	rootN.LeftH.Store(h)
	rootN.LocalH.Store(h + 1)
	t.heightEst.Store(h)
	t.passes.Add(1)
	return work
}

// reclaim steps the maintenance thread's limbo and counts the nodes freed.
func (t *Tree) reclaim() int {
	freed := t.maintTh.Reclaim()
	t.freed.Add(uint64(freed))
	return freed
}

// Quiesce leaves the tree balanced, physically clean and garbage-free, in
// at most maxPasses steps, and reports whether it got there. It runs
// passes until one makes no rotation and no removal: with no writer
// running, such a pass has propagated exact heights everywhere and found
// nothing to change, so another walk would find nothing either. What the
// earlier passes retired may still wait in the limbo; Quiesce then steps
// the limbo alone (each step counts against maxPasses, yielding first so
// an operation the limbo waits for can end) until it is empty. A tree
// that needed k passes of structural work thus costs k+1 walks, and a
// settled one a single walk. It is a driver like any other: a Driver over
// the tree must be paused for the duration (passes are single-driver, see
// RunMaintenancePass). Intended for tests and for phase changes in
// benchmarks; concurrent updates may legitimately prevent quiescence,
// hence the bound.
func (t *Tree) Quiesce(maxPasses int) bool {
	clean := false
	for ; maxPasses > 0 && !clean; maxPasses-- {
		clean = t.sweep() == 0
		t.reclaim()
	}
	for clean && t.maintTh.Retiring() != 0 {
		if maxPasses == 0 {
			return false
		}
		maxPasses--
		runtime.Gosched()
		t.reclaim()
	}
	return clean
}

// maintain processes the subtree rooted at ref (a child of parentRef on the
// side given by leftChild) and returns its estimated height plus the number
// of structural changes performed. The traversal reads the structure with
// plain atomic loads: the maintenance driver is the only structural writer
// besides leaf-appending inserts, so the nodes it walks cannot be unlinked
// under it, and every actual modification is re-validated inside its own
// transaction.
func (t *Tree) maintain(parentRef arena.Ref, leftChild bool, ref arena.Ref) (int32, int) {
	if ref == arena.Nil {
		return 0, 0
	}
	t.maintVisits++
	if t.maintVisits%maintYieldStride == 0 {
		runtime.Gosched()
	}
	n := t.node(ref)
	// Physical removal (§3.2): logically deleted nodes with at most one
	// child are unlinked; nodes with two children stay (the paper found
	// removing ≤1-child nodes keeps the tree from growing, §3.3).
	if n.Del.Plain() != 0 {
		l, r := n.L.Plain(), n.R.Plain()
		if l == arena.Nil || r == arena.Nil {
			if repl, _, ok := t.removeChild(parentRef, leftChild); ok {
				h, w := t.maintain(parentRef, leftChild, repl)
				return h, w + 1
			}
		}
	}
	// Post-order: settle the children first so the heights we propagate
	// are the freshest available estimates. The right child is touched
	// before the left descent so its miss overlaps the left child's.
	if r := n.R.Plain(); r != arena.Nil {
		touch(t.node(r))
	}
	lh, lw := t.maintain(ref, true, n.L.Plain())
	rh, rw := t.maintain(ref, false, n.R.Plain())
	setHeights(n, lh, rh)
	work := lw + rw

	// Rebalance (§3.1): trigger when the estimated child heights differ by
	// more than one.
	work += t.rebalance(parentRef, leftChild, ref, lh, rh)
	// The subtree root may have changed (rotation or removal); report the
	// estimate of whatever the parent points at now.
	var cur arena.Ref
	p := t.node(parentRef)
	if leftChild {
		cur = p.L.Plain()
	} else {
		cur = p.R.Plain()
	}
	return t.heightOf(cur), work
}

// touch loads both cache lines of n — the child links on the first, the
// deleted flag and height estimates on the second — so that maintain's
// later visit of n finds them cached; nothing depends on the loaded
// values, so the out-of-order core overlaps these misses with the walk of
// n's left sibling. The loads are atomic, which keeps the compiler from
// dropping them as dead. They must stay loads into nothing: storing the
// values anywhere shared (a package-level sink, a Tree field) would be a
// write that the shards' maintenance threads, run in parallel by
// forest.Quiesce, race on, and a cache line they all dirty.
func touch(n *arena.Node) {
	n.L.Plain()
	n.Del.Plain()
}

// setHeights refreshes n's height estimates from its children's, storing
// only the words that change. A pass visits every node, and in a balanced,
// settled tree nearly every estimate is already right: unconditional stores
// would dirty every node's second cache line — the one holding Del and Val,
// which application reads and updates touch — on every pass.
func setHeights(n *arena.Node, lh, rh int32) {
	if n.LeftH.Load() != lh {
		n.LeftH.Store(lh)
	}
	if n.RightH.Load() != rh {
		n.RightH.Store(rh)
	}
	if h := 1 + maxi32(lh, rh); n.LocalH.Load() != h {
		n.LocalH.Store(h)
	}
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
