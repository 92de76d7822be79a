// Package ftx implements multi-key atomic transactions over a sharded
// forest: one transaction may read and write keys owned by different
// shards, committing all of its effects atomically or none of them —
// transfer/ledger-style workloads over the whole key space.
//
// # Programming model
//
//	err := ftx.Run(domain, func(t *ftx.Tx) error {
//		v, ok := t.Get(src)
//		if !ok || t.Contains(dst) {
//			return errSkip // any non-nil error: nothing is applied
//		}
//		t.Delete(src)
//		t.Put(dst, v)
//		return nil
//	})
//
// The function body executes against a buffering Tx: Get/Contains read
// through to the owning shard's tree (one open stm.Snapshot session for the
// whole transaction, each key cached for repeatable reads), Put/Delete/
// Insert buffer their effect locally. Nothing touches shared state until fn
// returns nil; returning an error aborts the transaction with nothing
// applied. Like stm.Thread.Atomic, fn may be re-executed when the commit
// loses a conflict, so it must be free of side effects beyond the Tx and
// locals it re-assigns.
//
// # Commit
//
// Every shard of a domain lives in one STM (the construction checks it), so
// a commit is one ordinary transaction whatever the shards touched:
// stm.Thread.AtomicMode(CTL, …) replays every logged read — any difference
// from what fn observed re-executes fn — and applies every buffered write.
// The STM's own validation makes the read set and the write set atomic at
// the transaction's commit position; there is no cross-domain protocol.
// The replay stays (rather than running fn inside the STM transaction)
// because fn must see a consistent, repeatable view while it buffers, and
// a user abort must leave no locks or allocations behind.
//
// Sharding still partitions the trees: every key lives in one shard's
// tree, which is what splits maintenance, WAL partitions and recovery
// appliers. What shards no longer split is the version clock: every
// commit of the forest advances one clock. A single global clock is TL2's
// known scaling limit at many cores; the 2-vCPU host this was measured on
// cannot probe it.
//
// # One context per coordinator
//
// Everything a transaction needs between its first read and its commit —
// the Tx with its read log and write buffer, the WAL record buffers, and
// the closures handed to the STM — belongs to the Coordinator and is reset,
// not rebuilt, for every attempt; the STM's snapshot session is a value
// inside stm.Thread. A transaction therefore allocates nothing once the
// coordinator has grown to its size (gated by AllocsPerRun tests in forest,
// ftx and the facade). Two rules follow. The Tx is valid only inside the fn
// invocation it was passed to: its methods panic afterwards, because a Tx
// kept longer would alias the next transaction. And a coordinator runs one
// transaction at a time: Run panics when called from inside its own fn
// instead of clobbering the outer transaction — compose inside one fn.
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
// losing records an EvFtxAbort flight event per retry (recording every
// abort would flood the ring on a contended transfer workload).
const ftxAbortStormRetry = 3

// Domain is the sharded substrate a coordinator drives: the calling
// goroutine's STM thread and the shards' trees, all in that thread's STM.
// forest.Handle builds one from its forest; Single wraps a bare (map,
// thread) pair as the degenerate one-shard domain.
type Domain struct {
	// Thread is the calling goroutine's STM thread; it runs the
	// execution-phase reads and the commit transaction.
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
	// Aborts counts failed commit attempts that were retried: read
	// revalidation mismatches.
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
	th   *stm.Thread
	maps []trees.Map
	// tx is the one transaction context, handed to every fn and reset per
	// attempt (see Tx); running guards it against a nested Run.
	tx      Tx
	running bool
	stats   Stats
	// live is the seqlock-published mirror of stats: the owning goroutine
	// republishes the whole struct once per Run iteration, and Stats()
	// reads it under the seqlock, so a concurrent reader gets one
	// consistent multi-field snapshot rather than the torn field-by-field
	// view plain loads would give.
	live *obs.Group

	// wal, when set, receives one durable record per committed writing
	// transaction at its commit position (see Effects.Log). effects is the
	// record's reusable buffer.
	wal     *durable.Log
	effects Effects

	// The closures handed to the STM are built once; replayed is
	// commitFn's verdict.
	replayed bool
	commitFn func(*stm.Tx)    // the commit transaction's body
	logFn    func(pos uint64) // its OnCommitted hook on a durable domain

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
	c := &Coordinator{th: d.Thread, maps: d.Maps, live: obs.NewGroup(liveFields)}
	c.tx.init(c, d.ShardOf)
	c.commitFn = c.commitTx
	c.logFn = c.logCommit
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
// by the owning goroutine once per Run iteration.
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
	c.running = true
	defer func() { c.running = false }()
	retries := 0
	for {
		err, committed := c.attempt(fn)
		if err != nil {
			c.stats.UserAborts++
			c.publish()
			return err
		}
		if committed {
			c.publish()
			return nil
		}
		c.stats.Aborts++
		c.publish()
		retries++
		if retries >= ftxAbortStormRetry {
			// An abort storm: the same transaction keeps losing. Record one
			// flight event per retry past the threshold (not per abort, so a
			// contended-but-progressing workload doesn't flood the ring).
			c.fr.Load().Record(obs.EvFtxAbort, 0, int64(retries), 0)
		}
		c.th.CoordinatedAbort(retries)
	}
}

// attempt runs one execution+commit cycle of fn on the emptied Tx, ending
// the Tx — dead to its holders, snapshot session closed — on every exit
// path (a foreign panic out of fn must leak neither).
func (c *Coordinator) attempt(fn func(*Tx) error) (userErr error, committed bool) {
	t := &c.tx
	defer t.end()
	t.begin()
	if err := fn(t); err != nil {
		return err, false
	}
	return nil, c.commit()
}

// Run executes fn as one atomic transaction on a throwaway coordinator;
// callers who want Stats keep a Coordinator instead.
func Run(d Domain, fn func(*Tx) error) error {
	return NewCoordinator(d).Run(fn)
}

// Single wraps one (map, thread) pair as a one-shard Domain, which makes
// the transaction API usable — and its cost comparable — on a bare tree
// outside any forest (the benchmark ladder's lowest rung).
func Single(m trees.Map, th *stm.Thread) Domain {
	return Domain{Thread: th, Maps: []trees.Map{m}, ShardOf: func(uint64) int { return 0 }}
}

// commit runs the attempt's commit transaction, reporting whether it
// committed the writes (false: a logged read changed and fn must re-run).
func (c *Coordinator) commit() bool {
	t := &c.tx
	if len(t.reads.recs) == 0 && len(t.writes.recs) == 0 {
		// fn touched nothing: an empty transaction commits trivially.
		c.stats.Commits++
		c.stats.Fallbacks++
		return true
	}
	// Full read tracking (CTL) regardless of the domain default: every
	// replayed read must be validated at commit, and an elastic cut would
	// drop exactly the validation atomicity depends on.
	c.th.AtomicMode(stm.CTL, c.commitFn)
	if !c.replayed {
		return false
	}
	c.stats.Commits++
	switch {
	case !t.multi:
		c.stats.Fallbacks++
	case len(t.writes.recs) == 0:
		c.stats.ReadOnly++
	}
	return true
}

// commitTx is the commit transaction's body: replay the reads and, while
// they still match, apply the writes and register the durable record. A
// mismatch commits the transaction read-only and leaves replayed false.
func (c *Coordinator) commitTx(tx *stm.Tx) {
	t := &c.tx
	c.replayed = replayReads(c.maps, tx, t.reads.recs)
	if !c.replayed {
		return
	}
	applyWrites(c.maps, tx, t.writes.recs)
	if c.wal != nil && len(t.writes.recs) > 0 {
		tx.OnCommitted(c.logFn)
	}
}

// logCommit is the commit's OnCommitted hook on a durable domain: the
// write set, grouped by shard, at the commit position.
func (c *Coordinator) logCommit(pos uint64) {
	e := &c.effects
	e.Reset()
	for i := range c.tx.writes.recs {
		w := &c.tx.writes.recs[i]
		e.Add(int(w.shard), durable.Op{Key: w.key, Val: w.val, Del: !w.present})
	}
	e.Log(c.wal, pos, c.traceID)
}

// replayReads re-performs every logged read inside tx, reporting whether
// the world still matches what fn observed. The reads join tx's read set,
// so a "still matches" answer is validated at the transaction's commit.
func replayReads(maps []trees.Map, tx *stm.Tx, reads []keyState) bool {
	for i := range reads {
		r := &reads[i]
		v, present := maps[r.shard].GetTx(tx, r.key)
		if present != r.present || (present && v != r.val) {
			return false
		}
	}
	return true
}

// setterTx is the optional upsert entry point a tree may provide (every
// registry tree now does: sftree natively, rbtree/avltree natively, nrtree
// via embedding); without it a buffered put replays as delete+insert.
type setterTx interface {
	SetTx(tx *stm.Tx, k, v uint64)
}

// applyWrites replays the buffered writes inside tx.
func applyWrites(maps []trees.Map, tx *stm.Tx, writes []keyState) {
	for i := range writes {
		w := &writes[i]
		m := maps[w.shard]
		if !w.present {
			m.DeleteTx(tx, w.key)
			continue
		}
		if st, ok := m.(setterTx); ok {
			st.SetTx(tx, w.key, w.val)
			continue
		}
		m.DeleteTx(tx, w.key)
		if !m.InsertTxA(tx, w.key, w.val) {
			// The key was deleted (or read absent) in this very
			// transaction: only a doomed (zombie) attempt can see it
			// occupied now. Never publish the half-applied write set —
			// retry from scratch.
			tx.Restart()
		}
	}
}
