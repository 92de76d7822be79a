package ftx

import (
	"repro/internal/stm"
	"repro/internal/trees"
)

// Tx is the transaction handed to Run's fn. Reads go through to the owning
// shard's tree inside the attempt's STM transaction, so every read of an
// attempt belongs to one snapshot. Each key is looked up once per attempt:
// the Tx logs what it found — the value, and the tree word holding it — and
// answers a repeated read of the key from that log. Writes record the key's
// final state in the same log and are applied when fn returns nil: a Put of
// a key read present writes the found node's value word in place, and only
// keys read absent, never read, or deleted take the tree's SetTx/DeleteTx,
// after every in-place write. The Tx provides read-your-writes: a read of a
// key the transaction has written sees the logged effect, not the tree.
//
// There is one Tx per Coordinator, reset for every attempt: a transaction
// allocates nothing once the coordinator's key log has grown to its size.
// fn may run several times, each time on the same, emptied Tx, so it must
// not have side effects beyond the Tx and locals it re-assigns — and the Tx
// is only valid inside the fn invocation it was passed to: every method
// panics once fn has returned, because a Tx kept longer is the next
// transaction's.
type Tx struct {
	maps    []trees.Map
	shardOf func(k uint64) int
	stx     *stm.Tx // the running attempt's transaction; nil outside fn
	keys    keyLog

	// first is the shard of the attempt's first touched key (-1 before
	// one) and multi whether a later key lived elsewhere.
	first int
	multi bool
}

// begin empties the Tx for one execution of fn inside stx.
func (t *Tx) begin(stx *stm.Tx) {
	t.keys.reset()
	t.first, t.multi = -1, false
	t.stx = stx
}

// shard returns the shard owning k, noting it in the attempt's footprint.
func (t *Tx) shard(k uint64) int32 {
	if t.stx == nil {
		panic("ftx: Tx used outside the fn invocation it was passed to")
	}
	si := t.shardOf(k)
	if t.first < 0 {
		t.first = si
	} else if si != t.first {
		t.multi = true
	}
	return int32(si)
}

// read returns k's entry, looking k up in its shard's tree when the
// attempt has none yet. The lookup joins the transaction's read set, so the
// commit validates what the entry records — the value, or k's absence.
func (t *Tx) read(k uint64) *keyState {
	si := t.shard(k)
	if e := t.keys.find(k); e != nil {
		return e
	}
	s := keyState{key: k, shard: si}
	if w, ok := t.maps[si].ValTx(t.stx, k); ok {
		s.word, s.val, s.present = w, t.stx.Read(w), true
	}
	return t.keys.add(s)
}

// Get returns the value at k as observed by this transaction.
func (t *Tx) Get(k uint64) (uint64, bool) {
	e := t.read(k)
	return e.val, e.present
}

// Contains reports whether k is present as observed by this transaction.
func (t *Tx) Contains(k uint64) bool {
	return t.read(k).present
}

// Put maps k to v unconditionally (an upsert). It performs no read: a
// blind Put of a key the transaction never read adds nothing to the
// validation set.
func (t *Tx) Put(k, v uint64) {
	si := t.shard(k)
	e := t.keys.find(k)
	if e == nil {
		e = t.keys.add(keyState{key: k, shard: si})
	}
	t.keys.write(e, v, true)
}

// Insert maps k to v if k is absent as observed by this transaction,
// reporting whether it did.
func (t *Tx) Insert(k, v uint64) bool {
	e := t.read(k)
	if e.present {
		return false
	}
	t.keys.write(e, v, true)
	return true
}

// Delete removes k, reporting whether it was present as observed by this
// transaction. Deleting an absent key writes nothing: the read that found
// it absent is in the transaction's read set, so the commit validates that
// k stayed absent and the no-op outcome linearizes correctly.
func (t *Tx) Delete(k uint64) bool {
	e := t.read(k)
	if !e.present {
		return false
	}
	t.keys.write(e, 0, false)
	return true
}
