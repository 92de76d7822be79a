package ftx

import (
	"repro/internal/stm"
	"repro/internal/trees"
)

// Tx is the transaction handed to Run's fn. Reads go through to the owning
// shard's tree inside the attempt's STM transaction, so every read of an
// attempt belongs to one snapshot, and a repeated read traverses again.
// Writes buffer their per-key final state locally and are applied when fn
// returns nil. The Tx provides read-your-writes: a read of a key the
// transaction has written sees the buffered effect, not the tree.
//
// There is one Tx per Coordinator, reset for every attempt: a transaction
// allocates nothing once the coordinator's write buffer has grown to its
// size. fn may run several times, each time on the same, emptied Tx, so it
// must not have side effects beyond the Tx and locals it re-assigns — and
// the Tx is only valid inside the fn invocation it was passed to: every
// method panics once fn has returned, because a Tx kept longer is the next
// transaction's.
type Tx struct {
	maps    []trees.Map
	shardOf func(k uint64) int
	stx     *stm.Tx // the running attempt's transaction; nil outside fn
	writes  keyLog

	// first is the shard of the attempt's first touched key (-1 before
	// one) and multi whether a later key lived elsewhere.
	first int
	multi bool
}

// begin empties the Tx for one execution of fn inside stx.
func (t *Tx) begin(stx *stm.Tx) {
	t.writes.reset()
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

// Get returns the value at k as observed by this transaction.
func (t *Tx) Get(k uint64) (uint64, bool) {
	si := t.shard(k)
	if w := t.writes.find(k); w != nil {
		return w.val, w.present
	}
	return t.maps[si].GetTx(t.stx, k)
}

// Contains reports whether k is present as observed by this transaction.
func (t *Tx) Contains(k uint64) bool {
	_, ok := t.Get(k)
	return ok
}

// Put maps k to v unconditionally (an upsert). It performs no read: a
// blind Put of a key the transaction never read adds nothing to the
// validation set.
func (t *Tx) Put(k, v uint64) {
	s := keyState{key: k, val: v, present: true, shard: t.shard(k)}
	if w := t.writes.find(k); w != nil {
		*w = s
		return
	}
	t.writes.add(s)
}

// Insert maps k to v if k is absent as observed by this transaction,
// reporting whether it did.
func (t *Tx) Insert(k, v uint64) bool {
	if t.Contains(k) {
		return false
	}
	t.Put(k, v)
	return true
}

// Delete removes k, reporting whether it was present as observed by this
// transaction.
func (t *Tx) Delete(k uint64) bool {
	si := t.shard(k)
	if w := t.writes.find(k); w != nil {
		if !w.present {
			return false
		}
		*w = keyState{key: k, shard: si}
		return true
	}
	if _, ok := t.maps[si].GetTx(t.stx, k); !ok {
		// The read joins the transaction's read set: the commit validates
		// that k stayed absent, so the no-op outcome linearizes correctly
		// with no buffered write.
		return false
	}
	t.writes.add(keyState{key: k, shard: si})
	return true
}
