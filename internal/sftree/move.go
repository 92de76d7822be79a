package sftree

import "repro/internal/stm"

// TxMap is what the move composition needs of a map: the composable forms
// every tree library of this repository exports (trees.Map has them all).
type TxMap interface {
	GetTx(tx *stm.Tx, k uint64) (uint64, bool)
	ContainsTx(tx *stm.Tx, k uint64) bool
	DeleteTx(tx *stm.Tx, k uint64) bool
	InsertTxA(tx *stm.Tx, k, v uint64) bool
}

// Mover is the composed move of paper §5.4 — relocate the value at src to
// dst, succeeding only when src is present and dst absent — written once,
// from the exported *Tx forms exactly as an application programmer would
// write it, for every map and every caller: the tree's own Move, trees.Move
// on any library, the facade and the forest's same-shard move.
//
// It is a holder rather than a function so that a caller who keeps one (per
// thread or per handle) moves without allocating: the transaction body is
// bound once and acts on the move stored by Bind, where a closure literal
// per call costs the closure and every variable it captures. The caller runs
// the body in whatever transaction suits the map:
//
//	trees.Atomic(m, th, mv.Bind(m, src, dst))
//	ok := mv.Moved()
//
// The zero Mover is ready for use. It must not be copied after the first
// Bind, nor shared between goroutines.
type Mover struct {
	m        TxMap
	src, dst uint64
	ok       bool
	body     func(*stm.Tx)

	// OnMoved, when set, is called inside the transaction at the end of every
	// attempt that performed the move, with the value moved: the forest
	// registers the move's write-ahead-log record there. An attempt that
	// aborts afterwards takes whatever the hook registered on tx with it.
	OnMoved func(tx *stm.Tx, src, dst, v uint64)
}

// Bind stores the move to perform and returns the transaction body that
// performs it. The body may run any number of times (retries).
func (mv *Mover) Bind(m TxMap, src, dst uint64) func(*stm.Tx) {
	if mv.body == nil {
		mv.body = mv.run
	}
	mv.m, mv.src, mv.dst = m, src, dst
	return mv.body
}

// Moved reports the outcome of the committed attempt of the last body run.
func (mv *Mover) Moved() bool { return mv.ok }

func (mv *Mover) run(tx *stm.Tx) {
	m, src, dst := mv.m, mv.src, mv.dst
	mv.ok = false
	if src == dst {
		mv.ok = m.ContainsTx(tx, src)
		return
	}
	v, present := m.GetTx(tx, src)
	if !present || m.ContainsTx(tx, dst) {
		return
	}
	if !m.DeleteTx(tx, src) {
		return
	}
	if !m.InsertTxA(tx, dst, v) {
		// dst was checked absent in this very transaction: only a doomed
		// (zombie) attempt or an elastic cut of that check can see it
		// occupied now. Committing would make the half-move (the buffered
		// src delete) durable and lose the value under elastic
		// transactions, whose cut reads are exempt from commit validation,
		// and panicking would crash on a state that legitimately occurs —
		// retry from scratch instead.
		tx.Restart()
	}
	mv.ok = true
	if mv.OnMoved != nil {
		mv.OnMoved(tx, src, dst, v)
	}
}
