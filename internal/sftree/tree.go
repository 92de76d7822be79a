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
// Physically removed nodes are reclaimed by the maintenance thread through
// the epoch scheme of §3.4 (arena.Collector).
package sftree

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/arena"
	"repro/internal/stm"
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
	Freed        uint64 // nodes reclaimed by the §3.4 collector
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
	stm     *stm.STM
	ar      *arena.Arena
	variant Variant

	root arena.Ref // sentinel, key = MaxKey, never rotated nor removed

	collector *arena.Collector
	maintTh   *stm.Thread // maintenance thread's STM context

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
		scratch      arena.Ref // rotateOpt's pre-allocated copy node
		repl         arena.Ref // removal: the subtree that took the node's place
		removed      arena.Ref
		used, ok     bool
	}
	rotateFn, removeFn func(*stm.Tx)

	// maintVisits counts nodes visited by maintenance traversals; it is
	// only touched by the single maintenance driver (see maintYieldStride).
	maintVisits uint64

	// frames caches one opFrame per registered thread slot (frame.go), the
	// allocation-free argument-passing scheme of the abstract operations;
	// frameMu serializes the copy-on-write growth of the slice.
	frames  atomic.Pointer[[]*opFrame]
	frameMu sync.Mutex
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
		stm:     s,
		ar:      ar,
		variant: c.variant,
		root:    ar.Alloc(MaxKey, 0),
	}
	t.collector = arena.NewCollector(ar)
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

// STM returns the domain the tree was built on.
func (t *Tree) STM() *stm.STM { return t.stm }

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

// ElasticSafe reports whether the tree tolerates elastic (cut) read
// tracking. The portable variant does: its abstract operations pin their
// outcome with at most the two trailing reads that the elastic
// hand-over-hand window always validates (arrival hop + deleted flag, or
// arrival hop + ⊥ child). The optimized variant does not — its find pins
// three reads (removed flag, ⊥ child, parent link), one more than the
// window covers — and has no use for elasticity anyway, since its traversal
// already runs on unit reads. This matches the paper, which evaluates the
// non-optimized tree on E-STM (Fig. 4 left) and the optimized one on
// TinySTM's explicit unit loads (§3.3).
func (t *Tree) ElasticSafe() bool { return t.variant == Portable }

// atomic runs an abstract operation in the thread's default mode, demoting
// Elastic to CTL for the optimized variant (see ElasticSafe).
func (t *Tree) atomic(th *stm.Thread, fn func(*stm.Tx)) {
	mode := th.STM().DefaultMode()
	if mode == stm.Elastic && t.variant == Optimized {
		mode = stm.CTL
	}
	th.AtomicMode(mode, fn)
}

// ---------------------------------------------------------------------------
// Abstract operations (paper Algorithm 1, lines 23–44 and 60–70).
// ---------------------------------------------------------------------------

// Contains reports whether k is in the set. It runs as one transaction.
// Like the other abstract operations it passes arguments and results
// through the thread's reusable operation frame (frame.go) instead of a
// closure, keeping the steady-state hot path allocation-free.
func (t *Tree) Contains(th *stm.Thread, k uint64) bool {
	f := t.frame(th)
	f.k = k
	t.atomic(th, f.containsFn)
	return f.okOut
}

// ContainsTx is the composable form of Contains for use inside an enclosing
// transaction (paper §5.4's reusability).
func (t *Tree) ContainsTx(tx *stm.Tx, k uint64) bool {
	checkKey(k)
	curr := t.find(tx, k)
	n := t.node(curr)
	if n.Key.Plain() != k {
		return false
	}
	return tx.Read(&n.Del) == 0
}

// Get returns the value mapped to k, if present.
func (t *Tree) Get(th *stm.Thread, k uint64) (uint64, bool) {
	f := t.frame(th)
	f.k = k
	t.atomic(th, f.getFn)
	return f.valOut, f.okOut
}

// GetTx is the composable form of Get.
func (t *Tree) GetTx(tx *stm.Tx, k uint64) (uint64, bool) {
	checkKey(k)
	curr := t.find(tx, k)
	n := t.node(curr)
	if n.Key.Plain() != k {
		return 0, false
	}
	if tx.Read(&n.Del) != 0 {
		return 0, false
	}
	return tx.Read(&n.Val), true
}

// Insert maps k to v if k is absent, returning true on success (false when
// k was already present). It runs as one transaction. The new node, when
// needed, comes from an arena.Scratch so aborted attempts never leak slots.
func (t *Tree) Insert(th *stm.Thread, k, v uint64) bool {
	checkKey(k)
	f := t.frame(th)
	f.k, f.v = k, v
	t.atomic(th, f.insertFn)
	f.sc.Release(t.ar) // resets the frame's scratch for the next insert
	return f.okOut
}

// InsertTx is the composable form of Insert for use inside an enclosing
// transaction. sc manages the potential node allocation across retries of
// the enclosing Atomic; the caller must invoke sc.Release(tree.Arena())
// after the Atomic call returns.
func (t *Tree) InsertTx(tx *stm.Tx, k, v uint64, sc *arena.Scratch) bool {
	checkKey(k)
	sc.ResetAttempt()
	curr := t.find(tx, k)
	n := t.node(curr)
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
	ref := sc.Take(t.ar, k, v)
	if k < n.Key.Plain() {
		tx.Write(&n.L, ref)
	} else {
		tx.Write(&n.R, ref)
	}
	sc.MarkLinked()
	return true
}

// InsertTxA is InsertTx with tree-managed allocation, for deep composition
// (e.g. the vacation application's multi-table transactions) where threading
// a Scratch through every layer is impractical. If the enclosing transaction
// aborts on the very attempt that linked the node and then commits via a
// different path, the orphaned node is leaked inside the arena; this is
// bounded by the abort count and documented as acceptable for benchmarks.
func (t *Tree) InsertTxA(tx *stm.Tx, k, v uint64) bool {
	var sc arena.Scratch
	return t.InsertTx(tx, k, v, &sc)
}

// SetTx maps k to v within the enclosing transaction regardless of whether
// k is present (an upsert): a live node's value is overwritten in place, a
// logically deleted node is resurrected, and an absent key gains a new
// leaf. It is the write-replay entry point of the cross-shard transaction
// coordinator (internal/ftx), which buffers each written key's final state
// and needs to apply it without knowing presence; trees without SetTx pay
// a delete+insert pair instead. Allocation follows InsertTxA's discipline
// (tree-managed scratch, the same bounded leak profile on aborted linking
// attempts).
func (t *Tree) SetTx(tx *stm.Tx, k, v uint64) {
	checkKey(k)
	curr := t.find(tx, k)
	n := t.node(curr)
	if n.Key.Plain() == k {
		if tx.Read(&n.Del) != 0 {
			// Logical resurrection, exactly as InsertTx's same-key path.
			tx.Write(&n.Del, 0)
		}
		tx.Write(&n.Val, v)
		return
	}
	var sc arena.Scratch
	ref := sc.Take(t.ar, k, v)
	if k < n.Key.Plain() {
		tx.Write(&n.L, ref)
	} else {
		tx.Write(&n.R, ref)
	}
	sc.MarkLinked()
}

// Delete removes k from the set, returning true when k was present. The
// removal is logical (paper §3.2): only the deleted flag is written; the
// node is unlinked later by the maintenance thread.
func (t *Tree) Delete(th *stm.Thread, k uint64) bool {
	f := t.frame(th)
	f.k = k
	t.atomic(th, f.deleteFn)
	return f.okOut
}

// DeleteTx is the composable form of Delete.
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

// Move atomically relocates the value at key src to key dst. It succeeds —
// deleting src and inserting dst — only when src is present and dst is
// absent (src == dst: when it is present). Move is the composed operation of
// paper §5.4, built from the exported *Tx forms exactly as an application
// programmer would: see Mover, the one place the composition is written.
func (t *Tree) Move(th *stm.Thread, src, dst uint64) bool {
	checkKey(src)
	checkKey(dst)
	mv := &t.frame(th).mv
	t.atomic(th, mv.Bind(t, t, src, dst))
	return mv.Moved()
}

// Size counts the abstraction's elements in one read-only transaction
// (stm.Thread.AtomicRO: CTL whatever the domain's default, so the count is
// one consistent snapshot even under elastic transactions). It is intended
// for tests and example programs, not hot paths: it is the length of a
// whole-tree scan.
func (t *Tree) Size(th *stm.Thread) int {
	f := t.frame(th)
	f.snapshot(th, 0, MaxKey)
	buf := f.takeBuf()
	f.putBuf(buf)
	return len(buf)
}

// Keys returns the sorted keys of the abstraction, one consistent snapshot
// (see Size).
func (t *Tree) Keys(th *stm.Thread) []uint64 {
	f := t.frame(th)
	f.snapshot(th, 0, MaxKey)
	buf := f.takeBuf()
	keys := slices.Grow([]uint64(nil), len(buf)) // nil when empty, as ever
	for _, e := range buf {
		keys = append(keys, e[0])
	}
	f.putBuf(buf)
	return keys
}
