package main

import (
	"repro/internal/ftx"
	"repro/internal/sftree"
	"repro/internal/stm"
)

// target is the operation surface one ladder step exposes. *repro.Handle
// and *forest.Handle have exactly these methods, so the end-to-end clients
// and every ladder replay run the same executor; treeTarget adapts the bare
// tree on its STM, the lowest rung that has whole operations.
type target interface {
	Get(k uint64) (uint64, bool)
	Contains(k uint64) bool
	Insert(k, v uint64) bool
	Delete(k uint64) bool
	Move(src, dst uint64) bool
	Range(lo, hi uint64, fn func(k, v uint64) bool) bool
	Atomic(fn func(*ftx.Tx) error) error
}

type treeTarget struct {
	t     *sftree.Tree
	th    *stm.Thread
	coord *ftx.Coordinator
}

func newTreeTarget(t *sftree.Tree) *treeTarget {
	th := t.STM().NewThread()
	return &treeTarget{t: t, th: th, coord: ftx.NewCoordinator(ftx.Single(t, th))}
}

func (a *treeTarget) Get(k uint64) (uint64, bool) { return a.t.Get(a.th, k) }
func (a *treeTarget) Contains(k uint64) bool      { return a.t.Contains(a.th, k) }
func (a *treeTarget) Insert(k, v uint64) bool     { return a.t.Insert(a.th, k, v) }
func (a *treeTarget) Delete(k uint64) bool        { return a.t.Delete(a.th, k) }
func (a *treeTarget) Move(src, dst uint64) bool   { return a.t.Move(a.th, src, dst) }
func (a *treeTarget) Range(lo, hi uint64, fn func(k, v uint64) bool) bool {
	return a.t.Range(a.th, lo, hi, fn)
}
func (a *treeTarget) Atomic(fn func(*ftx.Tx) error) error { return a.coord.Run(fn) }

// executor runs generated ops against a target and checks every outcome
// the generator could predict. failed counts the ops whose outcome was
// wrong; it is what makes failed_ops_frac mean something.
type executor struct {
	w      *workload
	t      target
	count  [numOpKinds]uint64
	failed uint64

	// The closures below are built once, so a call allocates nothing on
	// the harness side; they act on cur.
	cur      *op
	transfer func(*ftx.Tx) error
	audit    func(*ftx.Tx) error
	scan     func(k, v uint64) bool

	missing  bool   // a transfer or audit did not find one of its keys
	scanPrev uint64 // last key the current scan visited, +1
	scanBad  bool
}

func newExecutor(w *workload, t target) *executor {
	e := &executor{w: w, t: t}
	e.transfer = func(tx *ftx.Tx) error {
		// Move one unit from the richest of the four keys to the poorest:
		// four reads and two writes spread over up to four shards.
		e.missing = false
		var rich, poor, richV, poorV uint64
		for i, k32 := range e.cur.k {
			k := uint64(k32)
			v, ok := tx.Get(k)
			if !ok {
				e.missing = true
				return nil
			}
			if i == 0 || v > richV {
				rich, richV = k, v
			}
			if i == 0 || v < poorV {
				poor, poorV = k, v
			}
		}
		if rich == poor { // all four equal: any two distinct keys do
			rich, poor = uint64(e.cur.k[0]), uint64(e.cur.k[1])
		}
		tx.Put(rich, richV-1)
		tx.Put(poor, poorV+1)
		return nil
	}
	e.audit = func(tx *ftx.Tx) error {
		e.missing = false
		for _, k := range e.cur.k {
			if _, ok := tx.Get(uint64(k)); !ok {
				e.missing = true
			}
		}
		return nil
	}
	e.scan = func(k, _ uint64) bool {
		if k < e.scanPrev {
			e.scanBad = true
		}
		e.scanPrev = k + 1
		return true
	}
	return e
}

func (e *executor) do(o *op) {
	e.count[o.kind]++
	k := uint64(o.k[0])
	ok := true
	switch o.kind {
	case opGet:
		v, found := e.t.Get(k)
		ok = o.expect == expectUnknown || found == (o.expect == expectPresent) &&
			(!found || e.w.initVal != 0 || v == k)
	case opContains:
		found := e.t.Contains(k)
		ok = o.expect == expectUnknown || found == (o.expect == expectPresent)
	case opInsert:
		ok = e.t.Insert(k, e.w.value(k))
	case opDelete:
		ok = e.t.Delete(k)
	case opMove:
		ok = e.t.Move(k, uint64(o.k[1]))
	case opRange:
		e.scanPrev, e.scanBad = k, false
		hi := k + e.w.rangeLen - 1
		ok = e.t.Range(k, hi, e.scan) && !e.scanBad && e.scanPrev <= hi+1
	case opTransfer:
		e.cur = o
		ok = e.t.Atomic(e.transfer) == nil && !e.missing
	case opAudit:
		e.cur = o
		ok = e.t.Atomic(e.audit) == nil && !e.missing
	}
	if !ok {
		e.failed++
	}
}

func (e *executor) ops() uint64 {
	var n uint64
	for _, c := range e.count {
		n += c
	}
	return n
}
