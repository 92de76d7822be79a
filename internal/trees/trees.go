// Package trees defines the common transactional-map interface the four
// benchmarked tree libraries implement, and a registry to construct them by
// the names used in the paper's figures. The paper-figure runner
// (internal/experiments), the vacation application, the sharded forest and
// the public facade all program against this interface, so every
// experiment can swap tree libraries with a flag.
package trees

import (
	"fmt"

	"repro/internal/avltree"
	"repro/internal/nrtree"
	"repro/internal/rbtree"
	"repro/internal/sftree"
	"repro/internal/stm"
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
	InsertTxA(tx *stm.Tx, k, v uint64) bool
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
}

// Maintained is implemented by trees with a maintenance sweep (the
// speculation-friendly variants, and the no-restructuring ablation with
// no-ops). Quiesce is single-driver: nothing else may drive the tree's
// maintenance meanwhile.
type Maintained interface {
	// Quiesce runs sweeps until one does no structural work.
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

// ElasticAware is implemented by trees that declare whether they tolerate
// elastic (cut) read tracking. Trees without the method are treated as
// elastic-safe (the speculation-friendly trees are, by design: immutable
// keys, signposted removals, candidate reads pinned transactionally).
type ElasticAware interface {
	ElasticSafe() bool
}

// ElasticSafe reports whether m tolerates elastic transactions.
func ElasticSafe(m Map) bool {
	if ea, ok := m.(ElasticAware); ok {
		return ea.ElasticSafe()
	}
	return true
}

// Atomic runs fn as one transaction in the thread's default mode, demoted
// from Elastic to CTL when the map does not tolerate cut reads. All
// compositions over a Map (Move, the vacation transactions, the public
// facade's Update) must go through this helper rather than calling
// Thread.Atomic directly.
func Atomic(m Map, th *stm.Thread, fn func(*stm.Tx)) {
	mode := th.STM().DefaultMode()
	if mode == stm.Elastic && !ElasticSafe(m) {
		mode = stm.CTL
	}
	th.AtomicMode(mode, fn)
}

// Mover is the reusable holder of the §5.4 move composition (see
// sftree.Mover): a caller that moves repeatedly keeps one per thread and
// runs it with MoveWith, which then allocates nothing.
type Mover = sftree.Mover

// MoveWith atomically relocates the value at src to dst on any Map through
// the caller's Mover: it succeeds — deleting src and inserting dst — only
// when src is present and dst absent.
func MoveWith(mv *Mover, m Map, th *stm.Thread, src, dst uint64) bool {
	Atomic(m, th, mv.Bind(m, m, src, dst))
	return mv.Moved()
}

// Move is MoveWith for the occasional caller with no Mover at hand.
func Move(m Map, th *stm.Thread, src, dst uint64) bool {
	return MoveWith(new(Mover), m, th, src, dst)
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
