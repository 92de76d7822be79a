package sftree

import (
	"runtime"
	"time"

	"repro/internal/arena"
)

// maintYieldStride bounds how many nodes a maintenance traversal visits
// before yielding the processor. Without it, a long depth-first pass can
// monopolize whole scheduler quanta on hosts with few cores while the
// application threads (which block on transactional conflicts and yields)
// starve — the pass itself is cheap, but it must stay interleaved.
const maintYieldStride = 64

// Scheduling parameters of the maintenance sweep. A sweep that found work
// is followed by another SweepGapMin later (after the budget rest); every
// idle sweep doubles the gap up to SweepGapMax, so an idle tree costs
// asymptotically no CPU while eventual propagation and GC-epoch progress
// stay guaranteed. They are exported so the forest's shared worker pool
// (internal/forest) runs the very same schedule — one source of truth for
// both drivers.
const (
	SweepGapMin = time.Millisecond
	SweepGapMax = 256 * time.Millisecond
	// maintRest is the maintenance duty share: a driver that has just spent
	// d on a sweep that found work stays off the CPU for maintRest·d before
	// it looks again, so maintenance takes at most 1/(1+maintRest) of a core
	// however much work there is — without the rest one driver sweeps
	// continuously beside the clients it is meant to serve. Only Stop cuts
	// the rest short; Quiesce and manual passes are exempt. The forest's
	// pool applies the same share per worker (its own maintRest: the two
	// must agree).
	maintRest = 3
)

// This file implements the maintenance ("rotator") side of the paper
// (§3): one depth-first sweep of the whole tree that propagates height
// estimates (§3.1), physically removes logically deleted nodes with at most
// one child (§3.2) and performs node-local rotations (§3.1), each
// structural change its own small transaction, then collects unlinked nodes
// with the §3.4 epoch scheme.
//
// A Tree used standalone drives the sweep from its own goroutine
// (Start/Stop below); the shards of a forest are driven by the forest's
// shared worker pool instead (internal/forest), through the same
// RunMaintenancePass.

// Start launches the maintenance goroutine. It is idempotent while running
// and safe for concurrent callers (serialized against Stop).
func (t *Tree) Start() {
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if t.running.Load() {
		return
	}
	t.stop.Store(false)
	t.done = make(chan struct{})
	t.quit = make(chan struct{})
	t.running.Store(true)
	go t.maintLoop(t.quit)
}

// Stop halts the maintenance goroutine and waits for it to finish its
// current work. It is a no-op when maintenance is not running and safe for
// concurrent callers: racing Stops serialize on the lifecycle lock, the
// loser observing the goroutine already stopped instead of double-waiting
// on done.
func (t *Tree) Stop() {
	t.stopEpoch.Add(1)
	t.lifeMu.Lock()
	defer t.lifeMu.Unlock()
	if !t.running.Load() {
		return
	}
	t.stop.Store(true)
	close(t.quit) // break the loop out of its idle wait or budget rest
	<-t.done
	t.stop.Store(false) // leave manual RunMaintenancePass/Quiesce usable
	t.running.Store(false)
}

// maintLoop is the tree's own maintenance driver: sweep, then wait — after a
// sweep that found work, its budget rest (maintRest) but at least
// SweepGapMin; after an idle sweep, a gap that doubles (capped) while the
// tree stays clean.
func (t *Tree) maintLoop(quit <-chan struct{}) {
	defer close(t.done)
	gap := SweepGapMin
	for !t.stop.Load() {
		t0 := time.Now()
		work := t.RunMaintenancePass()
		d := time.Since(t0)
		t.busyNanos.Add(uint64(d))
		if work > 0 {
			gap = SweepGapMin
			d = max(maintRest*d, gap)
		} else {
			gap = min(2*gap, SweepGapMax)
			d = gap
		}
		timer := time.NewTimer(d)
		select {
		case <-quit:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// RunMaintenancePass executes one full maintenance traversal synchronously:
// one garbage-collection epoch around one depth-first propagate/remove/
// rotate sweep. It returns the amount of structural work done (rotations +
// removals + nodes freed); a return of 0 means the tree was balanced, fully
// unlinked and garbage-free. It must not be called concurrently with Start.
func (t *Tree) RunMaintenancePass() int {
	t.collector.BeginEpoch(t.stm.Threads())
	rootN := t.node(t.root)
	h, work := t.maintain(t.root, true, rootN.L.Plain())
	rootN.LeftH.Store(h)
	rootN.LocalH.Store(h + 1)
	t.heightEst.Store(h)
	freed := t.collector.TryFree()
	t.freed.Add(uint64(freed))
	t.passes.Add(1)
	return work + freed
}

// Quiesce runs maintenance passes until one does no structural work (or
// maxPasses is hit), leaving the tree balanced and physically clean. A
// running background maintenance goroutine is paused for the duration and
// resumed afterwards (passes are single-driver, see RunMaintenancePass).
// Intended for tests and for phase changes in benchmarks; concurrent
// updates may legitimately prevent quiescence, hence the bound. Quiesce
// itself must be called from one goroutine at a time.
func (t *Tree) Quiesce(maxPasses int) bool {
	if t.running.Load() {
		t.Stop()
		epoch := t.stopEpoch.Load()
		defer func() {
			// Resume only if nobody else asked for a stop while we were
			// draining — a concurrent Close/Stop must win, not be undone.
			if t.stopEpoch.Load() == epoch {
				t.Start()
			}
		}()
	}
	for i := 0; i < maxPasses; i++ {
		if t.RunMaintenancePass() == 0 {
			return true
		}
	}
	return false
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
	if t.stop.Load() {
		return t.heightOf(ref), 0
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
	// are the freshest available estimates.
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
