package sftree

// Per-thread operation frames. The abstract operations (Contains, Get,
// Insert, Delete) each run one transaction whose function needs the
// operation's arguments and result slots. Capturing them in a closure —
// the obvious `t.atomic(th, func(tx) { ... })` — allocates that closure
// (and its captured variables) on every call, which was the entirety of
// the hot path's steady-state allocation (~1.2 allocs/op under profile).
//
// An opFrame is the reusable replacement: one per (tree, thread-slot)
// pair, holding the argument/result slots plus pre-bound method values
// for each operation. Binding `f.runInsert` once at frame construction
// allocates the bound-method closure once; afterwards an operation is
// "store args into the frame, run the pre-bound function, read results
// back", with zero allocator traffic. The frame also owns the buffer the
// scans (Range, RangeElastic, Size, Keys) snapshot their interval into, and
// the thread's Mover (move.go).
//
// Frames are keyed by stm.Thread.Slot(), which is dense and unique per
// registered thread, so the cache is a slice indexed by slot. Growth is
// copy-on-write under frameMu: readers only ever dereference the
// atomically published slice, so a concurrent first-call from a new
// thread never races an established reader.

import "repro/internal/stm"

type opFrame struct {
	t *Tree

	k, v   uint64
	okOut  bool
	valOut uint64

	containsFn func(*stm.Tx)
	getFn      func(*stm.Tx)
	insertFn   func(*stm.Tx)
	deleteFn   func(*stm.Tx)

	// The scan in flight: its interval and the buffer its transaction
	// collects into (reset on every attempt, see runRange).
	lo, hi uint64
	buf    [][2]uint64

	rangeFn   func(*stm.Tx)
	collectFn func(k, v uint64) bool

	mv Mover
}

func newOpFrame(t *Tree) *opFrame {
	f := &opFrame{t: t}
	f.containsFn = f.runContains
	f.getFn = f.runGet
	f.insertFn = f.runInsert
	f.deleteFn = f.runDelete
	f.rangeFn = f.runRange
	f.collectFn = f.collect
	return f
}

func (f *opFrame) runContains(tx *stm.Tx) { f.okOut = f.t.ContainsTx(tx, f.k) }
func (f *opFrame) runGet(tx *stm.Tx)      { f.valOut, f.okOut = f.t.GetTx(tx, f.k) }
func (f *opFrame) runInsert(tx *stm.Tx)   { f.okOut = f.t.InsertTx(tx, f.k, f.v) }
func (f *opFrame) runDelete(tx *stm.Tx)   { f.okOut = f.t.DeleteTx(tx, f.k) }

// frame returns the calling thread's operation frame, creating it (and
// growing the slot-indexed cache) on first use.
func (t *Tree) frame(th *stm.Thread) *opFrame {
	slot := int(th.Slot())
	if fs := t.frames.Load(); fs != nil && slot < len(*fs) && (*fs)[slot] != nil {
		return (*fs)[slot]
	}
	return t.growFrames(slot)
}

func (t *Tree) growFrames(slot int) *opFrame {
	t.frameMu.Lock()
	defer t.frameMu.Unlock()
	var cur []*opFrame
	if p := t.frames.Load(); p != nil {
		cur = *p
	}
	n := len(cur)
	if slot >= n {
		n = slot + 8
	}
	// Full copy even when only filling a hole: published slices are never
	// mutated in place, so lock-free readers stay race-free.
	grown := make([]*opFrame, n)
	copy(grown, cur)
	if grown[slot] == nil {
		grown[slot] = newOpFrame(t)
	}
	t.frames.Store(&grown)
	return grown[slot]
}
