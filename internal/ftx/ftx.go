// Package ftx implements multi-key atomic transactions over a sharded
// forest: one transaction may read and write keys owned by different
// shards, committing all of its effects atomically or none of them —
// transfer/ledger-style workloads over the whole key space.
//
// # Programming model
//
//	err := c.Run(func(t *ftx.Tx) error {
//		v, ok := t.Get(src)
//		if !ok || t.Contains(dst) {
//			return errSkip // any non-nil error: nothing is applied
//		}
//		t.Delete(src)
//		t.Put(dst, v)
//		return nil
//	})
//
// fn runs inside one STM transaction, stm.Thread.AtomicMode(CTL, …),
// whatever the shards it touches: every shard of a domain lives in one STM
// (the construction checks it). Get/Contains/Delete read through to the
// owning shard's tree inside that transaction, so everything fn reads
// belongs to one snapshot. Each key is looked up once per attempt: the Tx
// keeps a per-key log of what it found — the value, and the tree word that
// holds it — which answers a repeated read. Put/Delete/Insert record the
// key's final state in the same log, which later reads of the key see
// (read-your-writes). When fn returns nil the transaction applies the
// writes and commits: a Put after a Get writes the found node's value word
// in place, and structural changes — SetTx for keys read absent or never
// read, DeleteTx for deleted ones — apply last. The STM's own validation
// makes the reads and the writes atomic at its commit position.
// When fn returns an error the transaction writes nothing and commits
// read-only, so the error was decided on one consistent snapshot and no
// lock or tree node was taken — the reason writes are buffered rather than
// performed. A conflict re-executes fn through the STM's retry loop (after
// its pause), so fn must be free of side effects beyond the Tx
// and locals it re-assigns. The transaction tracks every read (CTL)
// whatever the domain default: an elastic cut would drop exactly the
// validation atomicity depends on.
//
// Sharding still partitions the trees: every key lives in one shard's
// tree, which is what splits maintenance. What shards no longer split is
// the version clock: every commit of the forest advances one clock, and a
// durable domain logs each commit as one WAL record at its position. A
// single global clock is TL2's known scaling limit at many cores; the
// 2-vCPU host this was measured on cannot probe it.
//
// # One context per coordinator
//
// Everything a transaction needs — the Tx with its key log, the WAL
// record buffer, and the closure handed to the STM — belongs to the
// Coordinator and is reset, not rebuilt, for every attempt. A transaction
// therefore allocates nothing once the coordinator has grown to its size
// (gated by AllocsPerRun tests in forest, ftx and the facade). Three rules
// follow. The Tx is valid only inside the fn invocation it was passed to:
// its methods panic afterwards, because a Tx kept longer would alias the
// next transaction. A coordinator runs one transaction at a time: Run
// panics when called from inside its own fn instead of clobbering the
// outer transaction — compose inside one fn. And fn runs inside a
// transaction of the coordinator's thread, so any other transaction on
// that thread from inside fn panics as a nested one.
package ftx

import (
	"fmt"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
)

// ftxAbortStormRetry is the retry count from which a transaction that keeps
// losing records an EvFtxAbort flight event per retried attempt (recording
// every abort would flood the ring on a contended transfer workload).
const ftxAbortStormRetry = 3

// Domain is the sharded substrate a coordinator drives: the calling
// goroutine's STM thread and the shards' trees, all in that thread's STM.
// forest.Handle builds one from its forest; Single wraps a bare (map,
// thread) pair as the degenerate one-shard domain.
type Domain struct {
	// Thread is the calling goroutine's STM thread; it runs the
	// transactions.
	Thread *stm.Thread
	// Maps are the shards' trees, indexed by shard.
	Maps []trees.Map
	// ShardOf returns the index of the shard owning key k.
	ShardOf func(k uint64) int
}

// Stats counts a coordinator's activity. All fields are monotonically
// increasing.
type Stats struct {
	// Commits counts committed transactions.
	Commits uint64
	// Fallbacks counts the subset of Commits whose keys all lived on one
	// shard.
	Fallbacks uint64
	// ReadOnly counts the subset of Commits that spanned shards and wrote
	// nothing.
	ReadOnly uint64
	// Aborts counts retried attempts: STM conflicts that re-executed fn.
	Aborts uint64
	// Deprecated: always 0 since the intent tables were removed;
	// benchmark/ still reads it.
	IntentConflicts uint64
	// UserAborts counts transactions abandoned because fn returned an
	// error (nothing applied, not retried).
	UserAborts uint64
}

// Add accumulates o into s (aggregation across coordinators).
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Fallbacks += o.Fallbacks
	s.ReadOnly += o.ReadOnly
	s.Aborts += o.Aborts
	s.IntentConflicts += o.IntentConflicts
	s.UserAborts += o.UserAborts
}

// Indices of the Stats fields inside the seqlock-published live mirror
// (see Coordinator.publish).
const (
	liveCommits = iota
	liveFallbacks
	liveReadOnly
	liveAborts
	liveUserAborts
	liveFields
)

// Coordinator runs transactions against one Domain. Like the handle it is
// built from, a Coordinator belongs to one goroutine.
type Coordinator struct {
	th *stm.Thread
	// tx is the one transaction context, handed to every fn and reset per
	// attempt (see Tx); running guards it against a nested Run.
	tx      Tx
	running bool
	stats   Stats
	// live is the seqlock-published mirror of stats: the owning goroutine
	// republishes the whole struct once per Run, and Stats() reads it
	// under the seqlock, so a concurrent reader gets one consistent
	// multi-field snapshot rather than the torn field-by-field view plain
	// loads would give.
	live *obs.Group

	// wal, when set, receives one durable record per committed writing
	// transaction at its commit position (log). ops is the record's
	// reusable buffer.
	wal *durable.Log
	ops []durable.Op

	// The closure handed to the STM is built once. fn is the running
	// Run's function, attempts the attempts its transaction has started
	// and err fn's verdict in the last one.
	bodyFn   func(*stm.Tx) // the transaction's body
	fn       func(*Tx) error
	attempts int
	err      error

	// fr is the optional flight recorder (abort storms). An atomic pointer
	// because the forest attaches it while the owning goroutine may be
	// mid-transaction.
	fr atomic.Pointer[obs.FlightRecorder]

	// traceID is the sampled operation the coordinator is running (zero
	// when untraced): its WAL record's span stitches to it. Owner-goroutine
	// plain field, like stats.
	traceID uint64
}

// NewCoordinator returns a coordinator for d. It panics when one of d's
// maps lives in an STM other than d's thread's: a transaction over two STMs
// would validate against two unrelated clocks and commit nothing atomic.
func NewCoordinator(d Domain) *Coordinator {
	for si, m := range d.Maps {
		if m.STM() != d.Thread.STM() {
			panic(fmt.Sprintf("ftx: shard %d's map lives in another STM than the domain's thread", si))
		}
	}
	c := &Coordinator{th: d.Thread, live: obs.NewGroup(liveFields)}
	c.tx.maps, c.tx.shardOf = d.Maps, d.ShardOf
	c.bodyFn = c.body
	return c
}

// SetWAL attaches a write-ahead log: every transaction the coordinator
// commits from now on is logged. Set before the coordinator is used.
func (c *Coordinator) SetWAL(l *durable.Log) { c.wal = l }

// SetFlightRecorder attaches a flight recorder: abort storms record into
// it. Safe to call from any goroutine; nil detaches.
func (c *Coordinator) SetFlightRecorder(fr *obs.FlightRecorder) { c.fr.Store(fr) }

// SetTraceID attaches a sampled operation's trace id: while it is non-zero
// the commit's WAL record closes its span under it. Pass 0 to clear.
// Owner-goroutine only, like Run.
func (c *Coordinator) SetTraceID(id uint64) { c.traceID = id }

// publish republishes the owner-side counters into the live mirror; called
// by the owning goroutine once per Run.
func (c *Coordinator) publish() {
	c.live.Begin()
	c.live.Set(liveCommits, c.stats.Commits)
	c.live.Set(liveFallbacks, c.stats.Fallbacks)
	c.live.Set(liveReadOnly, c.stats.ReadOnly)
	c.live.Set(liveAborts, c.stats.Aborts)
	c.live.Set(liveUserAborts, c.stats.UserAborts)
	c.live.End()
}

// Stats returns a consistent snapshot of the coordinator's counters. Safe
// to call from any goroutine at any time: it reads the seqlock-published
// mirror, never the owner's plain fields, so the returned struct is one
// coherent publish — no torn multi-field reads.
func (c *Coordinator) Stats() Stats {
	var v [liveFields]uint64
	c.live.Read(v[:])
	return Stats{
		Commits:    v[liveCommits],
		Fallbacks:  v[liveFallbacks],
		ReadOnly:   v[liveReadOnly],
		Aborts:     v[liveAborts],
		UserAborts: v[liveUserAborts],
	}
}

// Run executes fn as one atomic transaction (see the package comment),
// retrying until it commits. It returns nil on commit; a non-nil error from
// fn aborts the transaction with nothing applied and is returned verbatim.
// Run panics when called from inside fn: the coordinator has one
// transaction context.
func (c *Coordinator) Run(fn func(*Tx) error) error {
	if c.running {
		panic("ftx: Run inside a running transaction's fn; a coordinator runs one transaction at a time — compose inside one fn")
	}
	c.running, c.fn, c.attempts = true, fn, 0
	defer c.finish()
	c.th.AtomicMode(stm.CTL, c.bodyFn)
	t := &c.tx
	c.stats.Aborts += uint64(c.attempts - 1)
	if c.err != nil {
		c.stats.UserAborts++
	} else {
		if c.wal != nil && t.keys.written > 0 {
			c.log(c.th.LastCommit())
		}
		c.stats.Commits++
		switch {
		case !t.multi:
			c.stats.Fallbacks++
		case t.keys.written == 0:
			c.stats.ReadOnly++
		}
	}
	c.publish()
	return c.err
}

// finish ends Run on every exit path, a foreign panic out of fn included:
// the Tx is dead to its holders and the coordinator free for the next Run.
func (c *Coordinator) finish() {
	c.tx.stx = nil
	c.running, c.fn, c.err = false, nil, nil
}

// body is one attempt of the transaction: run fn on the emptied Tx and, if
// it returns nil, apply its writes. An error leaves the attempt read-only.
func (c *Coordinator) body(stx *stm.Tx) {
	c.attempts++
	if retries := c.attempts - 1; retries >= ftxAbortStormRetry {
		// An abort storm: the same transaction keeps losing. Record one
		// flight event per attempt from the threshold on (not from the
		// first abort, so a contended-but-progressing workload doesn't
		// flood the ring).
		c.fr.Load().Record(obs.EvFtxAbort, 0, int64(retries), 0)
	}
	t := &c.tx
	t.begin(stx)
	c.err = c.fn(t)
	if c.err != nil {
		return
	}
	applyWrites(t.maps, stx, t.keys.recs)
}

// Single wraps one (map, thread) pair as a one-shard Domain, which makes
// the transaction API usable — and its cost comparable — on a bare tree
// outside any forest (the benchmark ladder's lowest rung).
func Single(m trees.Map, th *stm.Thread) Domain {
	return Domain{Thread: th, Maps: []trees.Map{m}, ShardOf: func(uint64) int { return 0 }}
}

// log appends a committed transaction's written keys to the durable domain's
// WAL as one record at its commit position, whichever shards it touched.
func (c *Coordinator) log(pos uint64) {
	ops := c.ops[:0]
	for i := range c.tx.keys.recs {
		if e := &c.tx.keys.recs[i]; e.written {
			ops = append(ops, durable.Op{Key: e.key, Val: e.val, Del: !e.present})
		}
	}
	c.ops = ops
	c.wal.Append(pos, ops, c.traceID)
}

// applyWrites applies the attempt's writes inside tx, in two passes. The
// first writes the value word of every written key the attempt read
// present — the word its lookup found, with no second traversal. The second
// runs SetTx for the keys read absent or never read and DeleteTx for the
// deleted ones. The order matters: an RB or AVL delete of a node with two
// children copies its successor's value with tx.Read, so it must find the
// in-place writes already buffered, and it unlinks the successor's node, so
// a word written after it would be a dead node's.
func applyWrites(maps []trees.Map, tx *stm.Tx, keys []keyState) {
	for i := range keys {
		if e := &keys[i]; e.inPlace() {
			tx.Write(e.word, e.val)
		}
	}
	for i := range keys {
		switch e := &keys[i]; {
		case !e.written || e.inPlace():
		case e.present:
			maps[e.shard].SetTx(tx, e.key, e.val)
		default:
			maps[e.shard].DeleteTx(tx, e.key)
		}
	}
}
