package ftx

import "sync"

// IntentTable is one shard's table of in-flight cross-shard commit
// intents: an exclusive per-key claim a coordinator holds over its whole
// prepare→finalize window. One table lives on each forest shard, shared by
// every coordinator (handle) of the forest.
//
// Intents are what serializes conflicting ftx transactions against each
// other. Per-shard prepare validation catches any shard-local conflict,
// but two cross-shard transactions can form a read-write cycle no single
// shard sees (T1 reads X on shard a and writes Y on shard b while T2
// writes X and reads Y): each one's reads validate at its own lock points,
// yet the pair has no serial order. Covering *every* touched key — reads
// included — with an exclusive intent makes any such pair conflict on a
// key and keeps at least one of them out of its prepare window entirely.
//
// Plain single-shard transactions never consult the table; they are
// serialized against a prepared sub-transaction by the STM's word locks
// alone. The table is a coordination device between coordinators, not a
// lock the data path pays for.
type IntentTable struct {
	mu sync.Mutex
	m  map[uint64]*Coordinator // key → holder; lazily allocated
}

// tryAcquireAll claims every key of ks for owner, reporting success; on
// meeting another coordinator's claim it gives back the ones it took and
// fails. The whole list goes under one hold of the table's lock — a
// shard's share of a transaction is a handful of keys, and per-key locking
// cost more than the work it guarded.
func (it *IntentTable) tryAcquireAll(ks []uint64, owner *Coordinator) bool {
	it.mu.Lock()
	if it.m == nil {
		it.m = make(map[uint64]*Coordinator)
	}
	for i, k := range ks {
		if cur, held := it.m[k]; held && cur != owner {
			for _, taken := range ks[:i] {
				delete(it.m, taken)
			}
			it.mu.Unlock()
			return false
		}
		it.m[k] = owner
	}
	it.mu.Unlock()
	return true
}

// releaseAll drops the claims a successful tryAcquireAll(ks) took.
func (it *IntentTable) releaseAll(ks []uint64) {
	it.mu.Lock()
	for _, k := range ks {
		delete(it.m, k)
	}
	it.mu.Unlock()
}

// acquireIntents claims every touched key of every participant for c, in
// the deterministic global order (ascending shard index, ascending key
// within a shard). On the first conflict it releases everything already
// acquired and reports failure — no hold-and-wait, hence no deadlock; the
// coordinator stalls through the contention manager and retries.
func acquireIntents(c *Coordinator, parts []*participant) bool {
	for pi, p := range parts {
		if !p.sh.Intents.tryAcquireAll(p.touched, c) {
			releaseIntents(parts[:pi])
			return false
		}
	}
	return true
}

// releaseIntents drops every intent acquireIntents claimed.
func releaseIntents(parts []*participant) {
	for _, p := range parts {
		p.sh.Intents.releaseAll(p.touched)
	}
}
