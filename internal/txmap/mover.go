package txmap

import "repro/internal/stm"

// TxMap is what the move composition needs of a map: the composable forms
// every tree of this repository has (trees.Map has them all).
type TxMap interface {
	GetTx(tx *stm.Tx, k uint64) (uint64, bool)
	ContainsTx(tx *stm.Tx, k uint64) bool
	DeleteTx(tx *stm.Tx, k uint64) bool
	InsertTx(tx *stm.Tx, k, v uint64) bool
}

// Mover is the composed move of paper §5.4 — relocate the value at src to
// dst, succeeding only when src is present and dst absent — written once,
// from the exported *Tx forms exactly as an application programmer would
// write it, for every map and every caller: every tree's Move (Base.Move)
// and the forest's move.
//
// The source and destination may be two maps of one STM — a forest's
// cross-shard move is the same composition over the source key's shard and
// the destination key's shard, one plain transaction.
//
// It is a holder rather than a function so that a caller who keeps one (per
// thread or per handle) moves without allocating: the transaction body is
// bound once and acts on the move stored by Bind, where a closure literal
// per call costs the closure and every variable it captures. The caller runs
// the body in whatever transaction suits the maps, then calls Moved:
//
//	trees.Atomic(sm, th, mv.Bind(sm, dm, src, dst))
//	ok := mv.Moved()
//
// The destination node comes from dm's InsertTx, which takes it with
// tx.Alloc: a retried move keeps only the committed attempt's node.
//
// The zero Mover is ready for use. It must not be copied after the first
// Bind, nor shared between goroutines.
type Mover struct {
	sm, dm   TxMap // the maps holding src and dst
	src, dst uint64
	v        uint64 // the value the last attempt moved
	ok       bool
	body     func(*stm.Tx)
}

// Bind stores the move to perform — src out of sm, dst into dm — and
// returns the transaction body that performs it. The body may run any
// number of times (retries).
func (mv *Mover) Bind(sm, dm TxMap, src, dst uint64) func(*stm.Tx) {
	if mv.body == nil {
		mv.body = mv.run
	}
	mv.sm, mv.dm, mv.src, mv.dst = sm, dm, src, dst
	return mv.body
}

// Moved reports the outcome of the committed attempt of the last body run.
// Call it once the transaction has returned.
func (mv *Mover) Moved() bool { return mv.ok }

// Value returns the value the last move relocated (meaningful when Moved
// reported true and src differed from dst).
func (mv *Mover) Value() uint64 { return mv.v }

func (mv *Mover) run(tx *stm.Tx) {
	sm, dm, src, dst := mv.sm, mv.dm, mv.src, mv.dst
	mv.ok = false
	if src == dst {
		mv.ok = sm.ContainsTx(tx, src)
		return
	}
	v, present := sm.GetTx(tx, src)
	if !present || dm.ContainsTx(tx, dst) {
		return
	}
	if !sm.DeleteTx(tx, src) {
		return
	}
	if !dm.InsertTx(tx, dst, v) {
		// dst was checked absent in this very transaction: only a doomed
		// (zombie) attempt or an elastic cut of that check can see it
		// occupied now. Committing would make the half-move (the buffered
		// src delete) durable and lose the value under elastic
		// transactions, whose cut reads are exempt from commit validation,
		// and panicking would crash on a state that legitimately occurs —
		// retry from scratch instead.
		tx.Restart()
	}
	mv.ok, mv.v = true, v
}
