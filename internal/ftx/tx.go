package ftx

import (
	"repro/internal/stm"
	"repro/internal/trees"
)

// Tx is the buffering transaction handed to Run's fn. Reads go through to
// the owning shard's tree, served from one open read-only snapshot session
// (stm.Snapshot) for the whole transaction: every cache-miss read joins the
// same snapshot transaction instead of paying one committed read-only
// transaction per distinct key. Reads are cached so repeated reads are
// repeatable and free; writes buffer their per-key final state locally. The
// Tx provides read-your-writes: a read of a key the transaction has written
// sees the buffered effect, not the tree.
//
// The reads are consistent within their snapshot era (a session that
// cannot be extended over a concurrent commit resets and continues); they
// are made consistent as a whole at commit, where every logged read is
// replayed and validated inside the commit transaction.
//
// There is one Tx per Coordinator, reset for every attempt: a transaction
// allocates nothing once the coordinator's logs have grown to its size. fn
// may run several times, each time on the same, emptied Tx, so it must not
// have side effects beyond the Tx and locals it re-assigns — and the Tx is
// only valid inside the fn invocation it was passed to: every method panics
// once fn has returned, because a Tx kept longer is the next transaction's.
type Tx struct {
	c       *Coordinator
	shardOf func(k uint64) int
	live    bool // fn is running

	snap   *stm.Snapshot // the execution reads' session, opened at first read
	reads  keyLog
	writes keyLog

	// first is the shard of the attempt's first touched key (-1 before
	// one) and multi whether a later key lived elsewhere.
	first int
	multi bool

	// reading is the slot the stored read closure acts on (a closure built
	// per read would be an allocation per read).
	reading struct {
		m trees.Map
		keyState
	}
	readFn func(*stm.Tx)
}

func (t *Tx) init(c *Coordinator, shardOf func(uint64) int) {
	t.c, t.shardOf = c, shardOf
	t.readFn = func(tx *stm.Tx) {
		r := &t.reading
		r.val, r.present = r.m.GetTx(tx, r.key)
	}
}

// begin empties the Tx for one execution of fn.
func (t *Tx) begin() {
	t.reads.reset()
	t.writes.reset()
	t.first, t.multi = -1, false
	t.live = true
}

// end closes the attempt: the Tx is dead until the next begin, and the
// snapshot session is closed (the thread's session slot is a singleton, so
// the next attempt can open its own).
func (t *Tx) end() {
	t.live = false
	if t.snap != nil {
		t.snap.Close()
		t.snap = nil
	}
}

// shard returns the shard owning k, noting it in the attempt's footprint.
func (t *Tx) shard(k uint64) int32 {
	if !t.live {
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

// read returns the logged read of k on shard si, reading through to the
// snapshot session on first touch.
func (t *Tx) read(si int32, k uint64) keyState {
	if r := t.reads.find(k); r != nil {
		return *r
	}
	if t.snap == nil {
		t.snap = t.c.th.NewSnapshot()
	}
	r := &t.reading
	r.m, r.keyState = t.c.maps[si], keyState{key: k, shard: si}
	// A false Read means the session's snapshot could not be extended over
	// a concurrent commit and has reset; the retried call starts fresh.
	// Earlier cached reads stay logged as observed — commit revalidates
	// every one of them inside the commit transaction.
	for !t.snap.Read(t.readFn) {
	}
	t.reads.add(r.keyState)
	return r.keyState
}

// Get returns the value at k as observed by this transaction.
func (t *Tx) Get(k uint64) (uint64, bool) {
	si := t.shard(k)
	if w := t.writes.find(k); w != nil {
		return w.val, w.present
	}
	r := t.read(si, k)
	return r.val, r.present
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
	if !t.read(si, k).present {
		// Logged as absent: the commit validates it stayed absent, so the
		// no-op outcome linearizes correctly with no buffered write.
		return false
	}
	t.writes.add(keyState{key: k, shard: si})
	return true
}
