// Package sftree implements the speculation-friendly binary search tree of
// Crain, Gramoli and Raynal (PPoPP 2012), the primary contribution of the
// paper this repository reproduces.
//
// The tree implements an associative array (and hence a set) whose update
// operations are decoupled into:
//
//   - abstract transactions — insert, delete (logical only: it sets a
//     per-node deleted flag) and contains, executed by application threads,
//     whose read sets cover only the traversed path and whose write sets
//     touch at most one or two words; and
//   - structural transactions — node-local rotations, physical removals of
//     logically deleted nodes with at most one child, and balance-information
//     propagation, executed by a dedicated maintenance ("rotator") thread,
//     each as its own small transaction.
//
// Two variants are provided, selected at construction time:
//
//   - Portable (paper Algorithm 1): every traversal step is a transactional
//     read, so the tree runs on any TM exposing the standard interface.
//   - Optimized (paper Algorithm 2, §3.3): traversal uses unit reads
//     (stm.Tx.URead) and each node carries a removed flag; rotations
//     copy the rotated node (leaving the original as a signpost for
//     preempted traversals) and removals re-point the removed node's child
//     links at its former parent, giving O(1) read/write sets per operation.
//
// A structural transaction that unlinks a node retires it (stm.Tx.Retire);
// the maintenance thread's limbo frees it with the epoch scheme of §3.4
// once no operation that could still hold it is running
// (stm.Thread.Reclaim, stepped once per maintenance pass).
//
// The tree supplies the composable forms (ValTx, InsertTx, SetTx,
// DeleteTx, RangeTx) and its maintenance; the whole operations (Contains,
// Get, Insert, Delete, Move, Range, Size, Keys) come from the
// embedded txmap.Base, the layer the red-black and AVL baselines run on
// too.
package sftree

import (
	"fmt"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// MaxKey is the sentinel key of the fixed root node (the paper's +∞ root,
// §4: "It is created with a root node with key ∞ so that all nodes will
// always be on its left subtree"). User keys must be strictly smaller.
const MaxKey = ^uint64(0)

// Variant selects between the two algorithms of the paper.
type Variant int

const (
	// Portable is Algorithm 1: fully transactional traversals, in-place
	// rotations. It honours the standard TM interface.
	Portable Variant = iota
	// Optimized is Algorithm 2: unit-read traversals, copy-on-rotate,
	// removed-node signposting. It requires the TM's unit-load extension.
	Optimized
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	if v == Optimized {
		return "Opt SFtree"
	}
	return "SFtree"
}

// Stats counts the structural activity of the maintenance subsystem. All
// fields are monotonically increasing.
type Stats struct {
	Rotations    uint64 // successful single rotations (left or right)
	Removals     uint64 // successful physical removals
	Passes       uint64 // completed depth-first maintenance traversals
	Freed        uint64 // retired nodes freed by the maintenance thread's §3.4 limbo
	FailedRot    uint64 // rotation transactions that returned false
	FailedRemove uint64 // removal transactions that returned false

	// Deprecated: always 0; sweep time is DriverStats.BusyNanos.
	// benchmark/ still reads it.
	BusyNanos uint64

	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	HintsEmitted uint64
	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	HintsDropped uint64
	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	TargetedRepairs uint64
}

// Add accumulates o into s (aggregation across the shards of a forest).
func (s *Stats) Add(o Stats) {
	s.Rotations += o.Rotations
	s.Removals += o.Removals
	s.Passes += o.Passes
	s.Freed += o.Freed
	s.FailedRot += o.FailedRot
	s.FailedRemove += o.FailedRemove
}

// Tree is a speculation-friendly binary search tree. All abstract operations
// are safe for concurrent use by any number of threads (each goroutine
// passing its own *stm.Thread); the structural operations are driven by at
// most one maintenance driver at a time (a Driver, or RunMaintenancePass
// and Quiesce for deterministic tests).
type Tree struct {
	// Base runs the whole operations (Contains, Get, Insert, Delete, Move,
	// Range, Size, Keys) on the tree's composable forms.
	txmap.Base

	ar      *arena.Arena
	variant Variant

	root arena.Ref // sentinel, key = MaxKey, never rotated nor removed

	maintTh *stm.Thread // maintenance thread's STM context

	rotations    atomic.Uint64
	removals     atomic.Uint64
	passes       atomic.Uint64
	freed        atomic.Uint64
	failedRot    atomic.Uint64
	failedRemove atomic.Uint64
	// heightEst is the root's height estimate as of the last completed
	// maintenance pass (the sftree_height_estimate gauge).
	heightEst atomic.Int32

	// sop is the structural transaction in flight — a rotation or a
	// physical removal (rotate.go); the single maintenance driver runs them
	// one at a time — and rotateFn/removeFn the variant's transaction bodies
	// acting on it, built once in New: a closure literal per call was an
	// allocation per structural change.
	sop struct {
		parent       arena.Ref
		left, mirror bool
		repl         arena.Ref // removal: the subtree that took the node's place
		removed      arena.Ref
		ok           bool
	}
	rotateFn, removeFn func(*stm.Tx)

	// maintVisits counts nodes visited by maintenance traversals; it is
	// only touched by the single maintenance driver (see maintYieldStride).
	maintVisits uint64
}

// Option configures a Tree.
type Option func(*cfg)

type cfg struct {
	variant Variant
}

// WithVariant selects the algorithm variant (default Portable).
func WithVariant(v Variant) Option { return func(c *cfg) { c.variant = v } }

// New creates an empty tree attached to the given STM domain, with its own
// node arena. Nothing maintains it until a Driver runs over it or
// RunMaintenancePass is driven manually.
func New(s *stm.STM, opts ...Option) *Tree {
	c := cfg{variant: Portable}
	for _, o := range opts {
		o(&c)
	}
	ar := arena.New()
	t := &Tree{
		ar:      ar,
		variant: c.variant,
		root:    ar.Alloc(MaxKey, 0),
	}
	// The portable variant tolerates elastic (cut) read tracking: its
	// abstract operations pin their outcome with at most the two trailing
	// reads that the elastic hand-over-hand window always validates
	// (arrival hop + deleted flag, or arrival hop + ⊥ child). The optimized
	// variant does not — its find pins three reads (removed flag, ⊥ child,
	// parent link), one more than the window covers — and has no use for
	// elasticity anyway, since its traversal already runs on unit reads.
	// This matches the paper, which evaluates the non-optimized tree on
	// E-STM (Fig. 4 left) and the optimized one on TinySTM's explicit unit
	// loads (§3.3).
	t.Init(t, s, t.variant == Portable)
	if t.variant == Optimized {
		t.rotateFn, t.removeFn = t.rotateOptTx, t.removeOptTx
	} else {
		t.rotateFn, t.removeFn = t.rotatePortableTx, t.removePortableTx
	}
	t.maintTh = s.NewThread()
	// Every transaction this thread runs is structural (rotation, removal):
	// mark it so the STM's abort taxonomy splits its commits/aborts from the
	// semantic operations'.
	t.maintTh.MarkStructural()
	return t
}

// Variant reports which algorithm the tree runs.
func (t *Tree) Variant() Variant { return t.variant }

// Arena exposes the node arena (for instrumentation and white-box tests).
func (t *Tree) Arena() *arena.Arena { return t.ar }

// Stats returns a snapshot of the structural-activity counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Rotations:    t.rotations.Load(),
		Removals:     t.removals.Load(),
		Passes:       t.passes.Load(),
		Freed:        t.freed.Load(),
		FailedRot:    t.failedRot.Load(),
		FailedRemove: t.failedRemove.Load(),
	}
}

func checkKey(k uint64) {
	if k >= MaxKey {
		panic(fmt.Sprintf("sftree: key %d out of range (MaxKey is reserved for the root sentinel)", k))
	}
}

// node resolves a Ref.
func (t *Tree) node(r arena.Ref) *arena.Node { return t.ar.Get(r) }

// ---------------------------------------------------------------------------
// Composable operations (paper Algorithm 1, lines 23–44 and 60–70). The
// whole operations run them through the embedded txmap.Base.
// ---------------------------------------------------------------------------

// ValTx returns the word holding k's value in tx's snapshot, or false when
// k is absent: the one lookup behind GetTx and ContainsTx. The candidate's
// reads (its deleted flag, and find's pins on its position) are in tx's
// read set, so a write of the word later in tx commits only while k's node
// is still the live one.
func (t *Tree) ValTx(tx *stm.Tx, k uint64) (*stm.Word, bool) {
	checkKey(k)
	n := t.node(t.find(tx, k))
	if n.Key.Plain() != k || tx.Read(&n.Del) != 0 {
		return nil, false
	}
	return &n.Val, true
}

// InsertTx maps k to v if k is absent, returning true on success (false
// when k was already present). The new node, when one is needed, comes
// from tx.Alloc, so an attempt that does not commit gives it back.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64) bool {
	checkKey(k)
	n := t.node(t.find(tx, k))
	if n.Key.Plain() == k {
		if tx.Read(&n.Del) != 0 {
			// Logical resurrection (paper line 36): flip the deleted flag
			// back; the node is already in place.
			tx.Write(&n.Del, 0)
			tx.Write(&n.Val, v)
			return true
		}
		return false
	}
	t.link(tx, n, k, v)
	return true
}

// SetTx maps k to v within the enclosing transaction regardless of whether
// k is present (an upsert): a live node's value is overwritten in place, a
// logically deleted node is resurrected, and an absent key gains a new
// leaf. It is how the transaction coordinator (internal/ftx) applies the
// final state of a written key it did not find present.
func (t *Tree) SetTx(tx *stm.Tx, k, v uint64) {
	checkKey(k)
	n := t.node(t.find(tx, k))
	if n.Key.Plain() == k {
		if tx.Read(&n.Del) != 0 {
			// Logical resurrection, exactly as InsertTx's same-key path.
			tx.Write(&n.Del, 0)
		}
		tx.Write(&n.Val, v)
		return
	}
	t.link(tx, n, k, v)
}

// link hangs a new leaf for (k, v) under n, the leaf find stopped at.
func (t *Tree) link(tx *stm.Tx, n *arena.Node, k, v uint64) {
	ref := tx.Alloc(t.ar, k, v)
	tx.Write(n.Child(k > n.Key.Plain()), ref)
}

// DeleteTx removes k from the set, returning true when k was present. The
// removal is logical (paper §3.2): only the deleted flag is written; the
// node is unlinked later by the maintenance thread.
func (t *Tree) DeleteTx(tx *stm.Tx, k uint64) bool {
	checkKey(k)
	curr := t.find(tx, k)
	n := t.node(curr)
	if n.Key.Plain() != k {
		return false
	}
	if tx.Read(&n.Del) != 0 {
		return false
	}
	tx.Write(&n.Del, 1)
	return true
}
