package ftx

import (
	"slices"

	"repro/internal/stm"
	"repro/internal/trees"
)

// Tx is the buffering transaction handed to Run's fn. Reads go through to
// the owning shard, served from one open read-only snapshot session per
// participating shard (stm.Snapshot) — the batched-execution-reads regime:
// every cache-miss read of a shard joins the same snapshot transaction
// instead of paying one committed read-only transaction per distinct key.
// Reads are cached so repeated reads are repeatable and free; writes buffer
// their per-key final state locally. The Tx provides read-your-writes: a
// read of a key the transaction has written sees the buffered effect, not
// the shard.
//
// Each shard's reads are consistent within their snapshot era (a session
// that cannot be extended over a concurrent commit resets and continues,
// exactly as consistent as the per-key regime it replaces); reads across
// shards are made mutually consistent only at commit, where every logged
// read is replayed and validated inside the owning shard's sub-transaction.
//
// There is one Tx per Coordinator, reset for every attempt: a transaction
// allocates nothing once the coordinator's logs have grown to its size. fn
// may run several times, each time on the same, emptied Tx, so it must not
// have side effects beyond the Tx and locals it re-assigns — and the Tx is
// only valid inside the fn invocation it was passed to: every method panics
// once fn has returned, because a Tx kept longer is the next transaction's.
type Tx struct {
	d    Domain
	live bool // fn is running

	// parts holds one participant per shard of the domain, indexed by shard;
	// active lists the ones this attempt touched, in first-touch order until
	// participants sorts it. Every read and write is filed under its shard's
	// participant as it is made.
	parts  []participant
	active []*participant

	// reading is the slot the stored read closure acts on (a closure built
	// per read would be an allocation per read).
	reading struct {
		m trees.Map
		keyState
	}
	readFn func(*stm.Tx)
}

// participant is one shard's share of a transaction: its logged reads and
// buffered writes — each sorted ascending by key once participants has run —
// and the shard's open execution-read session.
type participant struct {
	si     int
	sh     Shard // looked up once per attempt, at first touch
	active bool
	snap   *stm.Snapshot
	reads  keyLog
	writes keyLog
	// touched is the sorted, duplicate-free union of read and written keys —
	// the shard's share of the transaction's intent footprint.
	touched []uint64
}

func (t *Tx) init(d Domain) {
	t.d = d
	t.parts = make([]participant, d.Shards())
	for si := range t.parts {
		t.parts[si].si = si
	}
	t.readFn = func(tx *stm.Tx) {
		r := &t.reading
		r.val, r.present = r.m.GetTx(tx, r.key)
	}
}

// begin empties the Tx for one execution of fn.
func (t *Tx) begin() {
	for _, p := range t.active {
		p.active = false
		p.reads.reset()
		p.writes.reset()
	}
	t.active = t.active[:0]
	t.live = true
}

// end closes the attempt: the Tx is dead until the next begin, and the
// per-shard snapshot sessions are closed (the threads' session slots are
// singletons, so the next attempt can open its own).
func (t *Tx) end() {
	t.live = false
	for _, p := range t.active {
		if p.snap != nil {
			p.snap.Close()
			p.snap = nil
		}
	}
}

// part returns the participant owning k, enlisting its shard on first touch.
func (t *Tx) part(k uint64) *participant {
	if !t.live {
		panic("ftx: Tx used outside the fn invocation it was passed to")
	}
	p := &t.parts[t.d.ShardOf(k)]
	if !p.active {
		p.active = true
		p.sh = t.d.Shard(p.si)
		t.active = append(t.active, p)
	}
	return p
}

// read returns p's logged read of k, reading through to the shard's
// snapshot session on first touch.
func (t *Tx) read(p *participant, k uint64) keyState {
	if r := p.reads.find(k); r != nil {
		return *r
	}
	if p.snap == nil {
		p.snap = p.sh.Thread.NewSnapshot()
	}
	r := &t.reading
	r.m, r.keyState = p.sh.Map, keyState{key: k}
	// A false Read means the session's snapshot could not be extended over
	// a concurrent commit and has reset; the retried call starts fresh.
	// Earlier cached reads of this shard stay logged as observed — commit
	// revalidates every one of them inside the shard's sub-transaction.
	for !p.snap.Read(t.readFn) {
	}
	p.reads.add(r.keyState)
	return r.keyState
}

// Get returns the value at k as observed by this transaction.
func (t *Tx) Get(k uint64) (uint64, bool) {
	p := t.part(k)
	if w := p.writes.find(k); w != nil {
		return w.val, w.present
	}
	r := t.read(p, k)
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
	p, s := t.part(k), keyState{key: k, val: v, present: true}
	if w := p.writes.find(k); w != nil {
		*w = s
		return
	}
	p.writes.add(s)
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
	p := t.part(k)
	if w := p.writes.find(k); w != nil {
		if !w.present {
			return false
		}
		*w = keyState{key: k}
		return true
	}
	if !t.read(p, k).present {
		// Logged as absent: the commit validates it stayed absent, so the
		// no-op outcome linearizes correctly with no buffered write.
		return false
	}
	p.writes.add(keyState{key: k})
	return true
}

// participants puts the attempt's footprint in commit order: the touched
// shards ascending by index (the deterministic prepare order), each shard's
// reads and writes ascending by key (the deterministic replay order), and
// their union as touched (the deterministic intent order).
func (t *Tx) participants() []*participant {
	slices.SortFunc(t.active, func(a, b *participant) int { return a.si - b.si })
	for _, p := range t.active {
		p.reads.sortByKey()
		p.writes.sortByKey()
		p.touched = mergeKeys(p.touched[:0], p.reads.recs, p.writes.recs)
	}
	return t.active
}

// mergeKeys appends to dst the ascending union of two ascending logs' keys.
func mergeKeys(dst []uint64, a, b []keyState) []uint64 {
	for len(a) > 0 && len(b) > 0 {
		ka, kb := a[0].key, b[0].key
		if ka <= kb {
			a = a[1:]
		}
		if kb <= ka {
			b = b[1:]
		}
		dst = append(dst, min(ka, kb))
	}
	for _, s := range a {
		dst = append(dst, s.key)
	}
	for _, s := range b {
		dst = append(dst, s.key)
	}
	return dst
}
