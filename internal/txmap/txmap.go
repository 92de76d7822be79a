// Package txmap is the whole-operation layer every tree of this repository
// shares. A tree supplies its composable forms — ValTx, InsertTx, DeleteTx
// and RangeTx, the pieces that differ between the speculation-friendly tree
// and the coupled baselines — and embeds a Base, which builds every
// whole operation (Contains, Get, Insert, Delete, Move, Range, Size, Keys)
// and the derived composable forms (GetTx, ContainsTx) on them, once, for
// all trees.
//
// Each whole operation runs one transaction whose body needs the
// operation's arguments and result slots. Capturing them in a closure
// allocates the closure and its captured variables on every call; instead
// each (tree, thread) pair has a frame holding the slots and the transaction
// bodies, bound once when the frame is built. An operation stores its
// arguments into the frame, runs the pre-bound body and reads the results
// back, with no allocator traffic. The frame also owns the buffer the scans
// snapshot their interval into and the thread's Mover (the §5.4 move).
//
// Whether a tree tolerates elastic (cut) reads is declared once at Init,
// and Mode is the one place that demotes an Elastic default to CTL for a
// tree that does not (E-STM, Felber–Gramoli–Guerraoui, DISC 2009).
package txmap

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/stm"
)

// Tree is what a tree supplies to the layer: the composable forms that are
// its own. GetTx and ContainsTx, which TxMap also asks for, come from the
// tree's embedded Base.
type Tree interface {
	TxMap
	// ValTx returns the word holding k's value in tx's snapshot, or false
	// when k is absent.
	ValTx(tx *stm.Tx, k uint64) (*stm.Word, bool)
	// RangeTx visits, in ascending order inside tx, every element with key
	// in [lo, hi] (inclusive); fn returning false stops it, and RangeTx
	// then reports false.
	RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool
}

// Mode returns the mode a transaction over a tree runs in: the domain's
// default, demoted from Elastic to CTL when the tree does not tolerate cut
// reads. Elastic transactions validate only a trailing window of reads;
// a tree whose delete moves keys between nodes, or whose lookup pins more
// reads than the window holds, can then mis-route or commit writes
// computed from reads nobody revalidated.
func Mode(th *stm.Thread, elasticSafe bool) stm.Mode {
	mode := th.STM().DefaultMode()
	if mode == stm.Elastic && !elasticSafe {
		return stm.CTL
	}
	return mode
}

// Base is the whole-operation layer a tree embeds. Call Init before use.
type Base struct {
	s       *stm.STM
	tr      Tree
	elastic bool

	// frames caches one frame per registered thread slot; frameMu
	// serializes the copy-on-write growth of the slice.
	frames  atomic.Pointer[[]*frame]
	frameMu sync.Mutex
}

// Init binds b to the tree embedding it, the domain the tree lives in, and
// whether the tree tolerates elastic transactions (see Mode).
func (b *Base) Init(tr Tree, s *stm.STM, elasticSafe bool) {
	b.tr, b.s, b.elastic = tr, s, elasticSafe
}

// STM returns the domain the tree lives in.
func (b *Base) STM() *stm.STM { return b.s }

// ElasticSafe reports whether the tree tolerates elastic (cut) read
// tracking, as declared at Init.
func (b *Base) ElasticSafe() bool { return b.elastic }

// atomic runs fn in the tree's mode (see Mode).
func (b *Base) atomic(th *stm.Thread, fn func(*stm.Tx)) {
	th.AtomicMode(Mode(th, b.elastic), fn)
}

// Contains reports whether k is present. It runs as one transaction.
func (b *Base) Contains(th *stm.Thread, k uint64) bool {
	f := b.frame(th)
	f.k = k
	b.atomic(th, f.containsFn)
	return f.ok
}

// ContainsTx is the composable form of Contains.
func (b *Base) ContainsTx(tx *stm.Tx, k uint64) bool {
	_, ok := b.tr.ValTx(tx, k)
	return ok
}

// Get returns the value mapped to k, if present.
func (b *Base) Get(th *stm.Thread, k uint64) (uint64, bool) {
	f := b.frame(th)
	f.k = k
	b.atomic(th, f.getFn)
	return f.val, f.ok
}

// GetTx is the composable form of Get.
func (b *Base) GetTx(tx *stm.Tx, k uint64) (uint64, bool) {
	w, ok := b.tr.ValTx(tx, k)
	if !ok {
		return 0, false
	}
	return tx.Read(w), true
}

// Insert maps k to v if k is absent, returning true on success (false when
// k was already present). It runs as one transaction.
func (b *Base) Insert(th *stm.Thread, k, v uint64) bool {
	f := b.frame(th)
	f.k, f.v = k, v
	b.atomic(th, f.insertFn)
	return f.ok
}

// Delete removes k, returning true when k was present. It runs as one
// transaction.
func (b *Base) Delete(th *stm.Thread, k uint64) bool {
	f := b.frame(th)
	f.k = k
	b.atomic(th, f.deleteFn)
	return f.ok
}

// Move atomically relocates the value at key src to key dst. It succeeds —
// deleting src and inserting dst — only when src is present and dst is
// absent (src == dst: when it is present). It is the composed operation of
// paper §5.4, run through the thread's Mover.
func (b *Base) Move(th *stm.Thread, src, dst uint64) bool {
	mv := &b.frame(th).mv
	b.atomic(th, mv.Bind(b.tr, b.tr, src, dst))
	return mv.Moved()
}

// Range visits every element with key in [lo, hi] (inclusive) in ascending
// order, calling fn(k, v) for each; fn returning false stops the scan. It
// reports whether the scan ran to the end of the interval. The interval is
// one consistent snapshot even when the domain defaults to elastic
// transactions: it is collected in a read-only CTL transaction
// (stm.Thread.AtomicRO), whose first attempt logs no reads and whose retry
// is the fully logged scan.
//
// fn runs after the transaction commits — exactly once per element, never
// from an aborted attempt — so it may accumulate state and perform side
// effects, including further operations on the same thread.
func (b *Base) Range(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool {
	f := b.frame(th)
	f.snapshot(th, lo, hi)
	return f.feed(fn)
}

// Size counts the elements in one read-only snapshot (see Range). It is
// the length of a whole-tree scan: meant for tests and examples, not hot
// paths.
func (b *Base) Size(th *stm.Thread) int {
	f := b.frame(th)
	f.snapshot(th, 0, ^uint64(0))
	buf := f.takeBuf()
	f.putBuf(buf)
	return len(buf)
}

// Keys returns the sorted keys, one consistent snapshot (see Size).
func (b *Base) Keys(th *stm.Thread) []uint64 {
	f := b.frame(th)
	f.snapshot(th, 0, ^uint64(0))
	buf := f.takeBuf()
	keys := slices.Grow([]uint64(nil), len(buf)) // nil when empty
	for _, e := range buf {
		keys = append(keys, e[0])
	}
	f.putBuf(buf)
	return keys
}

// frame is one thread's argument and result slots for one tree, with the
// transaction bodies acting on them, bound once in newFrame.
type frame struct {
	b *Base

	k, v uint64
	ok   bool
	val  uint64

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

func newFrame(b *Base) *frame {
	f := &frame{b: b}
	f.containsFn = f.runContains
	f.getFn = f.runGet
	f.insertFn = f.runInsert
	f.deleteFn = f.runDelete
	f.rangeFn = f.runRange
	f.collectFn = f.collect
	return f
}

func (f *frame) runContains(tx *stm.Tx) { f.ok = f.b.ContainsTx(tx, f.k) }
func (f *frame) runGet(tx *stm.Tx)      { f.val, f.ok = f.b.GetTx(tx, f.k) }
func (f *frame) runInsert(tx *stm.Tx)   { f.ok = f.b.tr.InsertTx(tx, f.k, f.v) }
func (f *frame) runDelete(tx *stm.Tx)   { f.ok = f.b.tr.DeleteTx(tx, f.k) }

// runRange is the scans' transaction body: it collects the frame's interval
// into the frame's buffer, resetting it on every attempt so only the
// committed attempt's elements survive.
func (f *frame) runRange(tx *stm.Tx) {
	f.buf = f.buf[:0]
	f.b.tr.RangeTx(tx, f.lo, f.hi, f.collectFn)
}

func (f *frame) collect(k, v uint64) bool {
	f.buf = append(f.buf, [2]uint64{k, v})
	return true
}

// keepScanBuf bounds, in elements, the snapshot buffer a frame keeps between
// scans (64 KB): the frame lives as long as the tree, and one whole-tree
// scan must not pin a copy of the tree to every thread that ran one.
const keepScanBuf = 1 << 12

// snapshot runs the frame's scan of [lo, hi] as one read-only transaction.
func (f *frame) snapshot(th *stm.Thread, lo, hi uint64) {
	f.lo, f.hi = lo, hi
	th.AtomicRO(f.rangeFn)
}

// takeBuf removes the committed snapshot from the frame and putBuf returns
// its storage. A Range callback runs between the two and may scan again on
// this very thread: with the buffer out of the frame the nested scan grows
// one of its own instead of overwriting the elements still being fed.
func (f *frame) takeBuf() [][2]uint64 {
	buf := f.buf
	f.buf = nil
	return buf
}

func (f *frame) putBuf(buf [][2]uint64) {
	if cap(buf) <= keepScanBuf {
		f.buf = buf[:0]
	}
}

// feed replays the committed snapshot into fn, honoring early stop.
func (f *frame) feed(fn func(k, v uint64) bool) bool {
	buf := f.takeBuf()
	done := true
	for _, e := range buf {
		if !fn(e[0], e[1]) {
			done = false
			break
		}
	}
	f.putBuf(buf)
	return done
}

// frame returns the calling thread's frame, creating it (and growing the
// slot-indexed cache) on first use. Slots are dense and unique per
// registered thread, so the cache is a slice indexed by slot. Growth is
// copy-on-write under frameMu: readers only dereference the atomically
// published slice, so a new thread's first call never races an established
// reader.
func (b *Base) frame(th *stm.Thread) *frame {
	slot := int(th.Slot())
	if fs := b.frames.Load(); fs != nil && slot < len(*fs) && (*fs)[slot] != nil {
		return (*fs)[slot]
	}
	return b.growFrames(slot)
}

func (b *Base) growFrames(slot int) *frame {
	b.frameMu.Lock()
	defer b.frameMu.Unlock()
	var cur []*frame
	if p := b.frames.Load(); p != nil {
		cur = *p
	}
	n := len(cur)
	if slot >= n {
		n = slot + 8
	}
	// A full copy even when only filling a hole: published slices are never
	// mutated in place.
	grown := make([]*frame, n)
	copy(grown, cur)
	if grown[slot] == nil {
		grown[slot] = newFrame(b)
	}
	b.frames.Store(&grown)
	return grown[slot]
}
