// Package arena provides the node storage substrate shared by every
// transactional tree and list in this repository: a chunked,
// index-addressed arena of nodes with a free list. Nodes enter and leave
// structures through transactions: stm.Tx.Alloc takes one, and
// stm.Tx.Retire hands an unlinked one to the thread's limbo, which frees
// it with the epoch scheme of paper §3.4 once no operation can still hold
// a reference (stm.Thread.Reclaim).
//
// Nodes are addressed by Ref (a dense uint64 index; 0 is the nil sentinel ⊥)
// rather than by Go pointers so that child links fit in a single stm.Word
// and traversals never keep arbitrary heap objects alive. Chunks are never
// moved or shrunk, so a Ref resolves to a stable *Node for the lifetime of
// the arena.
//
// A chunk is 16 384 nodes, 2 MiB: one transparent huge page, so a traversal
// of a tree far larger than the cache pays one TLB entry per 2 MiB of nodes
// rather than one per 4 KiB. On Linux (amd64, arm64; not under the race
// detector) chunks are mapped outside the Go heap on a 2 MiB boundary and
// advised MADV_HUGEPAGE (chunk_mmap.go). That is sound because a Node holds
// no Go pointers. A dead arena's chunks go to a process-wide pool once the
// arena is unreachable and are never unmapped; a new arena takes pooled
// chunks first. Node memory is therefore invisible to GOGC and to
// runtime.MemStats, and a node pointer must not outlive every reference to
// its arena. Elsewhere chunks are ordinary heap objects (chunk_heap.go).
package arena

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/stm"
)

// Ref identifies a node in an Arena. The zero Ref is ⊥ (nil).
type Ref = uint64

// Nil is the null node reference (the paper's ⊥).
const Nil Ref = 0

const (
	chunkBits = 14 // 16 384 nodes per chunk: 2 MiB, one huge page
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxChunks bounds the chunk directory (see Arena.chunkPtr): 4096
	// chunks of 2 MiB ≈ 67M nodes ≈ 8 GiB of 128-byte nodes, far beyond
	// any workload in this repository. The fixed directory is what lets Get
	// resolve a Ref with a single dependent load.
	maxChunks = 4096
)

// Node is the universal tree node. The speculation-friendly tree, the
// no-restructuring tree, the red-black tree and the AVL tree all use a
// subset of its words; sharing one layout keeps the arena monomorphic.
//
// Transactional words (accessed through stm.Tx) by tree kind:
//
//	slot  SF/NR trees              RB tree            AVL tree
//	Key   key (immutable)          key (mutable)      key (mutable)
//	L, R  child Refs               child Refs         child Refs
//	Rem   removal flag (§3.3)      Parent()           unused
//	Del   deletion flag (§3.2)     Balance(): color   Balance(): height
//	Val   value                    value              value
//
// SF/NR keys never change after publication (read with Plain/URead); the
// RB/AVL deletions copy the successor's key in place. Rem holds RemFalse,
// RemTrue or RemTrueByLeftRot; Del is 1 when the key is absent from the
// abstraction even though the node is linked. The RB and AVL trees never
// mark nodes removed or deleted, and the SF/NR trees keep no parent link
// and no transactional balance word, so the kinds share those two slots.
// A fresh node reads Rem = Del = 0: RemFalse and not deleted, or parent =
// Nil and color/height 0.
//
// Maintenance-local words (plain atomics, never part of a read/write set,
// exactly like the paper's node-local height estimates, §3.1; SF/NR only):
//
//	LeftH, RightH — estimated heights of the child subtrees
//	LocalH        — expected local height (1 + max of the two)
//
// Layout: the struct is exactly two 64-byte cache lines, grouped by access
// pattern. Line one holds what a search traversal touches at every hop
// (Key to compare, L/R to descend, Rem to reject removed nodes — the RB
// tree's parent link is read on its rebalancing paths only; a hop picks L
// or R with Child, by arithmetic on the comparison rather than a branch);
// line two holds what only the found node, an update or the maintenance
// sweep touches (Del/Val at the candidate, the heights and the free-list
// link; 12 bytes are padding). Chunks start on a 2 MiB boundary (mapped) or at least a
// 64-byte one (heap fallback), and 128 divides both, so every node's lines
// coincide with hardware lines and a k-node traversal costs k data lines; a
// chunk holds exactly 16 384 nodes, one huge page. Node holds no Go
// pointers, which is what lets chunks live outside the Go heap
// (TestNodeHasNoPointers). TestNodeLayout enforces the rest.
type Node struct {
	Key stm.Word
	L   stm.Word
	R   stm.Word
	Rem stm.Word

	Del stm.Word
	Val stm.Word

	LeftH  atomic.Int32
	RightH atomic.Int32
	LocalH atomic.Int32

	nextFree Ref // free-list link, guarded by the arena mutex

	_ [8]byte // pad to 2 full cache lines; see the layout comment
}

// rightOff is the distance from a node's L word to its R word.
const rightOff = unsafe.Offsetof(Node{}.R) - unsafe.Offsetof(Node{}.L)

// Child returns the child word a search for a key on the given side of
// the node's key follows: &n.L when right is false, &n.R when it is true.
// For uniform keys a search hop goes each way with equal probability, so a
// branch on the direction is mispredicted on about half the hops and every
// miss discards the speculative load of the next node. Child selects by
// arithmetic instead — a byte offset that is 0 or the L→R distance, which
// the compiler turns into a conditional move — so the next hop's address
// depends on the comparison as data, never as control. Every tree's
// descent picks its child here, and `make inline` checks that it inlines
// into the searches and that sftree's optimized find keeps the CMOV.
func (n *Node) Child(right bool) *stm.Word {
	var off uintptr
	if right {
		off = rightOff
	}
	return (*stm.Word)(unsafe.Add(unsafe.Pointer(&n.L), off))
}

// Parent is the red-black tree's parent link, kept in the Rem slot.
func (n *Node) Parent() *stm.Word { return &n.Rem }

// Balance is the red-black tree's color or the AVL tree's subtree height,
// kept in the Del slot.
func (n *Node) Balance() *stm.Word { return &n.Del }

// Rem flag values (paper §3.3: false, true, true-by-left-rotate).
const (
	RemFalse         = uint64(0)
	RemTrue          = uint64(1)
	RemTrueByLeftRot = uint64(2)
)

// Removed reports whether a Rem word value means "physically removed"
// (the paper treats true-by-left-rotate as true everywhere except one
// branch of the optimized find).
func Removed(rem uint64) bool { return rem != RemFalse }

type chunk [chunkSize]Node

// Arena is a grow-only chunked allocator of Nodes with an intrusive free
// list. Alloc and Free take a mutex (allocation is off the common read path
// of every benchmark: only effective inserts and the maintenance thread
// touch it); Get is wait-free.
//
// The chunk directory is a fixed inline array of atomic chunk pointers
// rather than an atomically published slice: resolving a Ref then costs
// one dependent load (the chunk pointer) instead of three (slice-header
// pointer → slice header → chunk pointer). Get runs once per traversal
// hop in every tree, and that dependent-load chain sat at the top of the
// CPU profile. The directory costs 32 KiB per arena — one arena per tree
// shard — and caps capacity at maxChunks chunks, enforced by the bounds
// check in Alloc.
type Arena struct {
	chunkPtr [maxChunks]atomic.Pointer[chunk]
	nChunks  atomic.Uint64
	// chunks lists what the directory holds, in a separate object so that
	// recycle can hand it to the pool without keeping the arena alive.
	chunks *[]*chunk

	mu       sync.Mutex
	freeHead Ref
	next     uint64 // bump pointer; slot 0 is burned for Nil

	allocs atomic.Uint64
	frees  atomic.Uint64
	reuses atomic.Uint64
}

// New creates an arena with one chunk pre-allocated. Slot 0 is reserved so
// that the zero Ref is never a valid node.
func New() *Arena {
	a := &Arena{next: 1, chunks: new([]*chunk)}
	a.grow(0)
	recycle(a)
	return a
}

// grow installs chunk ci; the caller holds the mutex or owns the arena.
func (a *Arena) grow(ci uint64) {
	c := newChunk()
	*a.chunks = append(*a.chunks, c)
	a.chunkPtr[ci].Store(c)
	a.nChunks.Store(ci + 1)
}

// Get resolves a Ref to its node. It panics on Nil or out-of-range refs
// (the latter via the compiler's bounds check on the chunk directory, or a
// nil-chunk dereference for a never-allocated slot): all indicate a bug in
// the caller, never a recoverable condition.
//
// Get runs once per traversal hop in every tree, so it must inline into
// its callers — a measured double-digit share of traversal CPU went to the
// call overhead alone. The constant-string panic is nearly free for the
// inlining budget; a formatted message (fmt.Sprintf) would push Get past
// it, which is why range violations are left to the runtime checks.
func (a *Arena) Get(r Ref) *Node {
	if r == Nil {
		panic("arena: Get(Nil)")
	}
	return &a.chunkPtr[r>>chunkBits].Load()[r&chunkMask]
}

// Alloc returns a fresh (or recycled) node initialized with the given key
// and value, no children, Del=false, Rem=false, and the paper's initial
// height estimates (left-h = right-h = 0, local-h = 1). The node is private
// to the caller until it publishes the Ref with a transactional write. A
// transaction takes its nodes through stm.Tx.Alloc, which gives them back
// when the attempt does not commit.
func (a *Arena) Alloc(key, val uint64) Ref {
	a.mu.Lock()
	var r Ref
	if a.freeHead != Nil {
		r = a.freeHead
		a.freeHead = a.get(r).nextFree
		a.reuses.Add(1)
	} else {
		r = a.next
		ci := r >> chunkBits
		if ci >= maxChunks {
			// Off the hot path, so a formatted message is affordable: the
			// fixed chunk directory is a hard capacity cap, and a bare
			// index-out-of-range panic here would be opaque.
			a.mu.Unlock()
			panic(fmt.Sprintf("arena: capacity exceeded: %d chunks × %d nodes (%d nodes); shard the workload across more arenas",
				maxChunks, chunkSize, uint64(maxChunks)*chunkSize))
		}
		a.next++
		if a.chunkPtr[ci].Load() == nil {
			a.grow(ci)
		}
	}
	a.mu.Unlock()
	a.allocs.Add(1)
	a.reinit(r, key, val)
	return r
}

// reinit resets a node the caller privately owns to the state Alloc
// produces for (key, val): a recycled slot carries its last use's words.
func (a *Arena) reinit(r Ref, key, val uint64) {
	n := a.Get(r)
	n.Key.SetPlain(key)
	n.Val.SetPlain(val)
	n.L.SetPlain(Nil)
	n.R.SetPlain(Nil)
	n.Del.SetPlain(0)
	n.Rem.SetPlain(RemFalse)
	n.LeftH.Store(0)
	n.RightH.Store(0)
	n.LocalH.Store(1)
}

// get resolves without the Nil check; caller holds the mutex or owns r.
func (a *Arena) get(r Ref) *Node {
	return &a.chunkPtr[r>>chunkBits].Load()[r&chunkMask]
}

// Free returns a node to the free list. The caller must guarantee that no
// other thread can still reach the node — either because the node was never
// published (stm.Tx.Alloc frees the nodes of an attempt that did not
// commit) or because every operation that was running when it was unlinked
// has completed (a thread's limbo frees the nodes stm.Tx.Retire logged).
func (a *Arena) Free(r Ref) {
	if r == Nil {
		panic("arena: Free(Nil)")
	}
	a.mu.Lock()
	n := a.get(r)
	n.nextFree = a.freeHead
	a.freeHead = r
	a.mu.Unlock()
	a.frees.Add(1)
}

// Live returns the number of nodes currently allocated and not freed.
func (a *Arena) Live() uint64 { return a.allocs.Load() - a.frees.Load() }

// Allocs returns the cumulative number of Alloc calls.
func (a *Arena) Allocs() uint64 { return a.allocs.Load() }

// Frees returns the cumulative number of Free calls.
func (a *Arena) Frees() uint64 { return a.frees.Load() }

// Reuses returns how many allocations were satisfied from the free list.
func (a *Arena) Reuses() uint64 { return a.reuses.Load() }

// Cap returns the current capacity in nodes (excluding the burned slot 0).
func (a *Arena) Cap() uint64 {
	return a.nChunks.Load()*chunkSize - 1
}
