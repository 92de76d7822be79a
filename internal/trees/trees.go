// Package trees defines the common transactional-map interface the
// benchmarked tree libraries implement, and a registry to construct them by
// the names used in the paper's figures. The paper-figure runner
// (internal/experiments), the vacation application, the sharded forest and
// the public facade all program against this interface, so every
// experiment can swap tree libraries with a flag.
//
// Every tree runs its whole operations through one layer, txmap.Base: a
// tree supplies its composable forms (ValTx, InsertTx, DeleteTx, RangeTx,
// SetTx) and gets Contains, Get, Insert, Delete, Move, Range, Size, Keys,
// GetTx and ContainsTx from it, all allocation-free in steady state.
package trees

import (
	"fmt"

	"repro/internal/avltree"
	"repro/internal/nrtree"
	"repro/internal/rbtree"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/txmap"
)

// Map is the transactional associative-array abstraction all trees
// implement: whole-operation forms taking a *stm.Thread, and composable
// forms taking the enclosing *stm.Tx (the reusability surface of §5.4).
type Map interface {
	// Whole-operation forms (each runs its own transaction).
	Insert(th *stm.Thread, k, v uint64) bool
	Delete(th *stm.Thread, k uint64) bool
	Get(th *stm.Thread, k uint64) (uint64, bool)
	Contains(th *stm.Thread, k uint64) bool
	// Move atomically relocates the value at src to dst: it succeeds —
	// deleting src and inserting dst — only when src is present and dst
	// absent (src == dst: when it is present). It is paper §5.4's
	// composition of the *Tx forms (txmap.Mover).
	Move(th *stm.Thread, src, dst uint64) bool
	Size(th *stm.Thread) int
	Keys(th *stm.Thread) []uint64
	// Range visits, in ascending key order, every element whose key lies
	// in [lo, hi] (both inclusive), calling fn(k, v) for each; fn returning
	// false stops the scan early. Range reports whether the scan ran to the
	// end of the interval (true) or was stopped by fn (false). The visited
	// elements form one consistent snapshot of the interval (the same
	// snapshot discipline as Size and Keys), and fn is invoked only after
	// the snapshot transaction commits — exactly once per element, never
	// from an aborted attempt — so it may accumulate state freely.
	Range(th *stm.Thread, lo, hi uint64, fn func(k, v uint64) bool) bool

	// Composable forms.
	GetTx(tx *stm.Tx, k uint64) (uint64, bool)
	ContainsTx(tx *stm.Tx, k uint64) bool
	// ValTx returns the word holding k's value in tx's snapshot, or false
	// when k is absent; GetTx is ValTx then tx.Read, and ContainsTx is
	// ValTx's second result. Writing the word later in tx updates k in
	// place with no second lookup, provided no DeleteTx of tx runs in
	// between: an RB or AVL delete of a node with two children copies its
	// in-order successor's key and value into it and unlinks the
	// successor's node, whose word is then dead.
	ValTx(tx *stm.Tx, k uint64) (*stm.Word, bool)
	// InsertTx maps k to v if k is absent (false when present). Its new
	// node comes from tx.Alloc, which gives it back to the tree's arena if
	// the attempt does not commit: the caller never sees it.
	InsertTx(tx *stm.Tx, k, v uint64) bool
	// SetTx maps k to v whether or not k is present (an upsert).
	SetTx(tx *stm.Tx, k, v uint64)
	DeleteTx(tx *stm.Tx, k uint64) bool
	// RangeTx is the composable form of Range, for use inside an enclosing
	// transaction (paper §5.4's reusability). Unlike Range's callback, fn
	// here runs inside the transaction: it is re-executed when the
	// enclosing transaction retries, so it must reset any accumulator at
	// the point the transaction function restarts.
	RangeTx(tx *stm.Tx, lo, hi uint64, fn func(k, v uint64) bool) bool

	// STM returns the domain the tree lives in: composable forms of two
	// maps may share a transaction only when they share it.
	STM() *stm.STM
	// ElasticSafe reports whether the tree tolerates elastic (cut) read
	// tracking (see txmap.Mode): the portable speculation-friendly tree and
	// the no-restructuring tree do; the optimized one and the RB and AVL
	// baselines do not.
	ElasticSafe() bool
}

// Maintained is implemented by trees with a maintenance sweep (the
// speculation-friendly variants, and the no-restructuring ablation with
// no-ops). Quiesce is single-driver: nothing else may drive the tree's
// maintenance meanwhile.
type Maintained interface {
	// Quiesce runs sweeps until one does no structural work, then frees
	// what the sweeps unlinked.
	Quiesce(maxPasses int) bool
}

// Kind names a tree library with the labels of the paper's figures.
type Kind string

const (
	// SF is the portable speculation-friendly tree (Algorithm 1).
	SF Kind = "sf"
	// SFOpt is the optimized speculation-friendly tree (Algorithm 2).
	SFOpt Kind = "sf-opt"
	// RB is the Oracle-style transactional red-black tree.
	RB Kind = "rb"
	// AVL is the STAMP-style transactional AVL tree.
	AVL Kind = "avl"
	// NR is the no-restructuring tree.
	NR Kind = "nr"
)

// Kinds lists every registered tree kind in figure order.
func Kinds() []Kind { return []Kind{RB, SF, SFOpt, NR, AVL} }

// Label returns the display name used in the paper's plots.
func (k Kind) Label() string {
	switch k {
	case SF:
		return "SFtree"
	case SFOpt:
		return "Opt SFtree"
	case RB:
		return "RBtree"
	case AVL:
		return "AVLtree"
	case NR:
		return "NRtree"
	default:
		return string(k)
	}
}

// New constructs an empty tree of the given kind on the STM domain.
// It panics on unknown kinds (a configuration error, never data-dependent).
func New(kind Kind, s *stm.STM) Map {
	switch kind {
	case SF:
		return sftree.New(s, sftree.WithVariant(sftree.Portable))
	case SFOpt:
		return sftree.New(s, sftree.WithVariant(sftree.Optimized))
	case RB:
		return rbtree.New(s)
	case AVL:
		return avltree.New(s)
	case NR:
		return nrtree.New(s)
	default:
		panic(fmt.Sprintf("trees: unknown kind %q", kind))
	}
}

// Start begins background maintenance when the tree has any — a
// one-worker sftree.Driver over a speculation-friendly tree; a no-op for
// the RB, AVL and no-restructuring trees — returning the function that
// stops it.
func Start(m Map) (stop func()) {
	if t, ok := m.(*sftree.Tree); ok {
		return sftree.NewDriver(1, t).Close
	}
	return func() {}
}

// Quiesce drains maintenance work when the tree has any. It drives the
// tree itself, so maintenance begun by Start must be stopped first.
func Quiesce(m Map, maxPasses int) {
	if mt, ok := m.(Maintained); ok {
		mt.Quiesce(maxPasses)
	}
}

// Atomic runs fn as one transaction in the mode m's own operations run
// in: the thread's default, demoted from Elastic to CTL when m does not
// tolerate cut reads (txmap.Mode). The forest's Move and vacation's actions
// run in it. An elastic transaction cuts the reads outside its trailing
// window, so a composition that writes values computed from several
// earlier reads — a transfer between two keys — can commit on reads
// nobody revalidated: run such a composition in stm.CTL, as the forest's
// Update and Atomic do.
func Atomic(m Map, th *stm.Thread, fn func(*stm.Tx)) {
	th.AtomicMode(txmap.Mode(th, m.ElasticSafe()), fn)
}

// Rotations reports structural rotations for kinds that expose them:
// committed rotations for the speculation-friendly trees, attempted
// rotations for the red-black tree (§5.5's comparison).
func Rotations(m Map) (uint64, bool) {
	switch t := m.(type) {
	case *sftree.Tree:
		return t.Stats().Rotations, true
	case *nrtree.Tree:
		return t.Tree.Stats().Rotations, true
	case *rbtree.Tree:
		return t.Rotations(), true
	default:
		return 0, false
	}
}
