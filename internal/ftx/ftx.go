// Package ftx implements cross-shard atomic transactions: a forest-level
// coordinator that lets one transaction read and write keys owned by
// different STM-domain shards, committing all of its effects atomically or
// none of them. It is the layer the ROADMAP's "forest-level 2PC or intent
// log" item asked for: where the sharded forest used to offer only
// best-effort two-phase compensation for its one composed cross-shard
// operation (Move), ftx gives arbitrary multi-key transactions —
// transfer/ledger-style workloads — over the whole key space.
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
// through to the owning shard (one open stm.Snapshot session per
// participating shard, each key cached for repeatable reads),
// Put/Delete/Insert buffer their effect locally. Nothing touches shared
// state until fn returns nil; returning an error aborts the transaction
// with nothing applied. Like stm.Thread.Atomic, fn may be re-executed when
// the commit loses a conflict, so it must be free of side effects beyond
// the Tx and locals it re-assigns.
//
// # One context per coordinator
//
// Everything a transaction needs between its first read and its last
// finalize — the Tx with its per-shard read logs and write buffers, the
// commit-order participant list, the prepared handles, the WAL record
// buffers, and the closures handed to the STM — belongs to the Coordinator
// and is reset, not rebuilt, for every attempt; the STM's session and
// prepared handles are values inside stm.Thread. A transaction therefore
// allocates nothing once the coordinator has grown to its size (gated by
// AllocsPerRun tests in forest, ftx and the facade). Two rules follow.
// The Tx is valid only inside the fn invocation it was passed to: its
// methods panic afterwards, because a Tx kept longer would alias the next
// transaction. And a coordinator runs one transaction at a time: Run
// panics when called from inside its own fn instead of clobbering the
// outer transaction — compose inside one fn.
//
// # Commit protocol
//
// Commit is a deterministic shard-ordered two-phase commit over the
// per-shard STM domains:
//
//  1. Intents. The coordinator registers an exclusive intent on every
//     touched key (reads and writes) in its per-shard intent table, in
//     ascending (shard, key) order. Intents are what serializes conflicting
//     ftx transactions with each other: two coordinators sharing a key can
//     never both be inside their prepare window, which closes the
//     cross-shard read-write cycles that per-shard validation alone cannot
//     see. A conflict releases everything and retries through the
//     contention manager.
//  2. Prepare. For each participating shard in ascending shard index, the
//     coordinator runs one sub-transaction (stm.Thread.Prepare, always CTL)
//     that re-reads every logged read — aborting if any differs from what
//     fn observed — and applies the buffered writes, then holds the
//     attempt at its lock point: validated, write-locked, unpublished.
//  3. Finalize or roll back. Once every shard is prepared the coordinator
//     finalizes them all (stm.Prepared.Finalize, ascending); if any shard
//     fails to prepare, the already-prepared shards are dropped
//     (stm.Prepared.Drop) with nothing published anywhere, and the whole
//     transaction re-executes after a contention-manager stall.
//
// # Why this is atomic and deadlock-free
//
// Atomicity: a shard's sub-transaction holds all of its write locks from
// prepare to finalize, so no concurrent shard-local transaction can read or
// overwrite any word the coordinator is about to publish — a reader of a
// half-committed state necessarily touches a locked word and aborts. All
// logged reads were simultaneously valid at the first shard's lock point
// (each was validated at its own shard's prepare, and intents plus the held
// locks keep conflicting ftx commits out of the whole window), which makes
// that lock point the transaction's serialization point.
//
// Deadlock-freedom: nothing in the protocol blocks while holding a
// resource. Intent acquisition is try-acquire in a deterministic global
// order (ascending shard, then key) and releases everything on conflict;
// prepare's lock acquisition is try-lock (a lost CAS aborts the attempt);
// finalize releases locks unconditionally. Livelock between contenders is
// damped by the same pluggable contention-manager backoff the STM's
// lifecycle engine uses, and the ascending orders make the common conflict
// pattern (two transfers over the same accounts) resolve by one side
// winning the lowest-ordered intent.
//
// Single-shard transactions — including every transaction on a one-shard
// domain — skip the protocol entirely and commit as one ordinary atomic
// transaction (the fallback fast path, counted in Stats.Fallbacks).
package ftx

import (
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Flight-recorder thresholds: a prepare phase slower than this, or an
// attempt aborting after this many retries, is notable enough for the ring
// (recording every one would flood it on a contended transfer workload).
const (
	ftxPrepareSlowNanos = int64(100_000) // 100µs
	ftxAbortStormRetry  = 3
)

// Abort-cause codes carried by EvFtxAbort's B payload.
const (
	ftxAbortIntent  = 0 // another coordinator's intent on a shared key
	ftxAbortPrepare = 1 // read revalidation or lock race inside prepare
	ftxAbortReplay  = 2 // revalidation mismatch on the single-shard/read-only path
)

// Shard is the caller-local access surface of one participating shard: the
// shard's tree, the calling goroutine's STM thread registered with the
// shard's domain, and the shard's intent table (shared by every coordinator
// of the forest).
type Shard struct {
	Map     trees.Map
	Thread  *stm.Thread
	Intents *IntentTable
}

// Domain is the sharded substrate a coordinator drives. forest.Handle
// adapts itself to it; Single wraps a bare (map, thread) pair as the
// degenerate one-shard domain.
//
// Shard(si) may be called repeatedly for the same index and must return a
// consistent view; like the rest of the per-goroutine accessor surface it
// is not safe for concurrent use.
type Domain interface {
	// Shards reports the number of partitions.
	Shards() int
	// ShardOf returns the index of the shard owning key k.
	ShardOf(k uint64) int
	// Shard returns the access surface of shard si.
	Shard(si int) Shard
}

// Stats counts a coordinator's activity. All fields are monotonically
// increasing; Commits-Fallbacks is the number of genuine cross-shard
// two-phase commits.
type Stats struct {
	// Commits counts committed transactions (both protocol paths).
	Commits uint64
	// Fallbacks counts the subset of Commits that took the single-shard
	// fast path: every touched key lived on one shard, so the transaction
	// committed as one ordinary atomic transaction with no intents, no
	// prepare and no cross-shard window.
	Fallbacks uint64
	// ReadOnly counts the subset of Commits that took the read-only
	// cross-shard fast path: the transaction wrote nothing, so it skipped
	// intents and prepare entirely and validated with a double read of the
	// participating shards' version clocks (see commitReadOnly).
	ReadOnly uint64
	// Aborts counts failed commit attempts that were retried: read
	// revalidation mismatches, lost lock races, and intent conflicts.
	Aborts uint64
	// IntentConflicts counts the subset of Aborts caused by another
	// coordinator's intent on a shared key.
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
	liveIntentConflicts
	liveUserAborts
	liveFields
)

// Coordinator runs cross-shard transactions against one Domain. Like the
// handle it is built from, a Coordinator belongs to one goroutine.
type Coordinator struct {
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

	// wal, when set, receives one durable record per committed transaction:
	// an atomic multi-shard record emitted at finalize (so the commit's
	// atomicity carries onto disk — the record is wholly present or wholly
	// torn), or an ordinary update record for the single-shard fallback.
	wal *durable.Log
	// Reusable buffers: opbuf is the single-shard durable record, logged the
	// multi-shard one (kept at its longest, Ops slices included), clkbuf the
	// read-only fast path's clock samples, prepared the shards currently
	// held at their lock points.
	opbuf    []durable.Op
	logged   []durable.ShardOps
	clkbuf   []uint64
	prepared []*stm.Prepared

	// The closures handed to the STM are built once and act on cur, the
	// participant being committed; replayed is replayApply's verdict.
	cur         *participant
	replayed    bool
	replayApply func(*stm.Tx)    // AtomicMode body of the fallback and read-only paths
	prepareFn   func(*stm.Tx)    // Prepare body of the two-phase path
	logSingle   func(pos uint64) // OnCommitted hook of a durable fallback commit

	// fr is the optional flight recorder (slow prepares, abort storms). An
	// atomic pointer because the forest attaches it while the owning
	// goroutine may be mid-transaction.
	fr atomic.Pointer[obs.FlightRecorder]

	// Trace context: the facade attaches a sampled operation's (tracer, id)
	// before Run and clears it after (SetTraceContext); while set, commit
	// phases record SpanFtxIntent/Prepare/Finalize spans. Owner-goroutine
	// plain fields, like stats. lastAbortCause remembers why the most
	// recent commitCross attempt failed, for the abort-storm flight event.
	tr             *obs.Tracer
	traceID        uint64
	lastAbortCause int64
}

// NewCoordinator returns a coordinator for d.
func NewCoordinator(d Domain) *Coordinator {
	c := &Coordinator{live: obs.NewGroup(liveFields)}
	c.tx.init(d)
	c.replayApply = func(tx *stm.Tx) {
		p := c.cur
		c.replayed = replayReads(p.sh.Map, tx, p.reads.recs)
		if !c.replayed {
			return // commit read-only; the coordinator re-executes fn
		}
		applyWrites(p.sh.Map, tx, p.writes.recs)
		if c.wal != nil && len(p.writes.recs) > 0 {
			c.opbuf = appendWriteOps(c.opbuf[:0], p.writes.recs)
			tx.OnCommitted(c.logSingle)
		}
	}
	c.prepareFn = func(tx *stm.Tx) {
		p := c.cur
		if !replayReads(p.sh.Map, tx, p.reads.recs) {
			tx.Restart()
		}
		applyWrites(p.sh.Map, tx, p.writes.recs)
	}
	c.logSingle = func(pos uint64) { c.wal.LogUpdateT(c.cur.si, pos, c.opbuf, c.traceID) }
	return c
}

// SetWAL attaches a write-ahead log: every transaction the coordinator
// commits from now on is logged. Set before the coordinator is used.
func (c *Coordinator) SetWAL(l *durable.Log) { c.wal = l }

// SetFlightRecorder attaches a flight recorder: slow prepare phases and
// abort storms record into it. Safe to call from any goroutine; nil
// detaches.
func (c *Coordinator) SetFlightRecorder(fr *obs.FlightRecorder) { c.fr.Store(fr) }

// SetTraceContext attaches a sampled operation's trace context: while id is
// non-zero the commit protocol records its phase spans under it. Pass
// (nil, 0) to clear. Owner-goroutine only, like Run.
func (c *Coordinator) SetTraceContext(tr *obs.Tracer, id uint64) {
	c.tr = tr
	c.traceID = id
}

// publish republishes the owner-side counters into the live mirror; called
// by the owning goroutine once per Run iteration (a handful of atomic
// stores per whole cross-shard transaction — noise next to the protocol).
func (c *Coordinator) publish() {
	c.live.Begin()
	c.live.Set(liveCommits, c.stats.Commits)
	c.live.Set(liveFallbacks, c.stats.Fallbacks)
	c.live.Set(liveReadOnly, c.stats.ReadOnly)
	c.live.Set(liveAborts, c.stats.Aborts)
	c.live.Set(liveIntentConflicts, c.stats.IntentConflicts)
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
		Commits:         v[liveCommits],
		Fallbacks:       v[liveFallbacks],
		ReadOnly:        v[liveReadOnly],
		Aborts:          v[liveAborts],
		IntentConflicts: v[liveIntentConflicts],
		UserAborts:      v[liveUserAborts],
	}
}

// Run executes fn as one atomic cross-shard transaction (see the package
// comment for the protocol), retrying on conflict until it commits. It
// returns nil on commit; a non-nil error from fn aborts the transaction
// with nothing applied and is returned verbatim. Run panics when called
// from inside fn: the coordinator has one transaction context.
func (c *Coordinator) Run(fn func(*Tx) error) error {
	if c.running {
		panic("ftx: Run inside a running transaction's fn; a coordinator runs one transaction at a time — compose inside one fn")
	}
	c.running = true
	defer func() { c.running = false }()
	retries := 0
	for {
		parts, err, committed := c.attempt(fn)
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
			c.fr.Load().Record(obs.EvFtxAbort, 0, int64(len(parts)), c.lastAbortCause)
		}
		if len(parts) > 0 {
			// Stall through the lowest participating shard's contention
			// manager, charging the retry to that shard's thread.
			parts[0].sh.Thread.CoordinatedAbort(retries)
		}
	}
}

// attempt runs one execution+commit cycle of fn on the emptied Tx, ending
// the Tx — dead to its holders, per-shard snapshot sessions closed — on
// every exit path (a foreign panic out of fn must leak neither).
func (c *Coordinator) attempt(fn func(*Tx) error) (parts []*participant, userErr error, committed bool) {
	t := &c.tx
	defer t.end()
	t.begin()
	if err := fn(t); err != nil {
		return nil, err, false
	}
	parts = t.participants()
	return parts, nil, c.commit(parts)
}

// Run executes fn as one atomic cross-shard transaction on a throwaway
// coordinator; callers who want Stats keep a Coordinator instead.
func Run(d Domain, fn func(*Tx) error) error {
	return NewCoordinator(d).Run(fn)
}

// single is the degenerate one-shard Domain.
type single struct {
	sh Shard
}

func (s *single) Shards() int        { return 1 }
func (s *single) ShardOf(uint64) int { return 0 }
func (s *single) Shard(int) Shard    { return s.sh }

// Single wraps one (map, thread) pair as a one-shard Domain: every
// transaction on it commits through the single-shard fast path, which makes
// the cross-shard API usable — and its cost comparable — on a bare tree
// outside any forest (the benchmark ladder's lowest rung).
func Single(m trees.Map, th *stm.Thread) Domain {
	return &single{sh: Shard{Map: m, Thread: th, Intents: &IntentTable{}}}
}

// commit drives one attempt of the two-phase protocol over the
// participants, returning true when everything published.
func (c *Coordinator) commit(parts []*participant) bool {
	switch len(parts) {
	case 0:
		// fn touched nothing: an empty transaction commits trivially.
		c.stats.Commits++
		c.stats.Fallbacks++
		return true
	case 1:
		return c.commitSingle(parts[0])
	default:
		for _, p := range parts {
			if len(p.writes.recs) > 0 {
				return c.commitCross(parts)
			}
		}
		return c.commitReadOnly(parts)
	}
}

// commitReadOnly commits a no-write cross-shard transaction without intents
// and without prepare: it samples every participating shard's version clock,
// revalidates each shard's logged reads in one ordinary read-only
// transaction, and re-samples the clocks — any clock that moved fails the
// attempt back to the coordinator's retry loop.
//
// Why the clock double-read is enough: a shard's clock advances only inside
// commit, after the committer has acquired its write locks and before it
// publishes and releases them (the GV4/GV5 protocol comment in stm's
// commit). So if a shard's clock reads the same before and after our
// replays, every writer that bumped that clock did so before our first
// sample — and such a writer's locks were either already released (its
// writes fully published before we read) or still held (our replay of any
// word it touches waits out the lock and sees the published value). Either
// way each replay observes a state that stays valid for the whole window,
// which makes all the per-shard replays simultaneously valid at the second
// sample: that instant is the transaction's serialization point. A
// read-only transaction never advances a clock itself, so the replays do
// not disturb the validation they are part of.
func (c *Coordinator) commitReadOnly(parts []*participant) bool {
	if cap(c.clkbuf) < len(parts) {
		c.clkbuf = make([]uint64, len(parts))
	}
	clocks := c.clkbuf[:len(parts)]
	for i, p := range parts {
		clocks[i] = p.sh.Thread.STM().Now()
	}
	for _, p := range parts {
		if !c.replayOn(p) {
			return false
		}
	}
	for i, p := range parts {
		if p.sh.Thread.STM().Now() != clocks[i] {
			c.lastAbortCause = ftxAbortReplay
			return false
		}
	}
	c.stats.Commits++
	c.stats.ReadOnly++
	return true
}

// commitSingle is the fallback fast path: one participating shard, one
// ordinary atomic transaction. STM-level conflicts retry inside AtomicMode
// as usual; only a read-revalidation mismatch (the world moved since fn
// ran) escapes to the coordinator for full re-execution.
func (c *Coordinator) commitSingle(p *participant) bool {
	ok := c.replayOn(p)
	if ok {
		c.stats.Commits++
		c.stats.Fallbacks++
	}
	return ok
}

// replayOn runs replayApply on p's shard as one ordinary transaction:
// replay p's reads and, while they still match, apply its writes (the
// read-only path has none) and register the durable record. A false return
// is a revalidation mismatch, which the transaction committed read-only.
func (c *Coordinator) replayOn(p *participant) bool {
	th := p.sh.Thread
	c.cur = p
	if c.traceID != 0 {
		th.SetTraceContext(c.tr, c.traceID, obs.OpAtomic)
	}
	// Full read tracking (CTL) regardless of the domain default: every
	// replayed read must be validated at commit, and an elastic cut would
	// drop exactly the validation the protocol depends on.
	th.AtomicMode(stm.CTL, c.replayApply)
	if c.traceID != 0 {
		th.SetTraceContext(nil, 0, 0)
	}
	if !c.replayed {
		c.lastAbortCause = ftxAbortReplay
	}
	return c.replayed
}

// appendWriteOps converts buffered write records to durable log ops.
func appendWriteOps(dst []durable.Op, writes []keyState) []durable.Op {
	for i := range writes {
		w := &writes[i]
		dst = append(dst, durable.Op{Key: w.key, Val: w.val, Del: !w.present})
	}
	return dst
}

// notePrepare closes the prepare phase's accounting: the SpanFtxPrepare
// span when the transaction is traced, and the EvFtxPrepare flight event
// when the phase exceeded the slow threshold. failed is 1 when the phase
// unwound.
func (c *Coordinator) notePrepare(start int64, shards, failed int64) {
	end := time.Now().UnixNano()
	if c.traceID != 0 {
		c.tr.Record(c.traceID, obs.SpanFtxPrepare, obs.OpAtomic, start, end, shards, failed)
	}
	if end-start >= ftxPrepareSlowNanos {
		c.fr.Load().Record(obs.EvFtxPrepare, time.Duration(end-start), shards, failed)
	}
}

// commitCross is the shard-ordered two-phase commit.
func (c *Coordinator) commitCross(parts []*participant) bool {
	traced := c.traceID != 0
	var t0 int64
	if traced {
		t0 = time.Now().UnixNano()
	}
	if !acquireIntents(c, parts) {
		c.stats.IntentConflicts++
		c.lastAbortCause = ftxAbortIntent
		if traced {
			c.tr.Record(c.traceID, obs.SpanFtxIntent, obs.OpAtomic, t0, time.Now().UnixNano(), int64(len(parts)), 1)
		}
		return false
	}
	defer releaseIntents(parts)
	if traced {
		c.tr.Record(c.traceID, obs.SpanFtxIntent, obs.OpAtomic, t0, time.Now().UnixNano(), int64(len(parts)), 0)
	}
	// The prepare phase is timed for its span and for the slow-prepare
	// flight event; with neither a trace nor a recorder to tell, the clock
	// is left alone.
	timed := traced || c.fr.Load() != nil
	var prepStart int64
	if timed {
		prepStart = time.Now().UnixNano()
	}

	c.prepared = c.prepared[:0]
	// A foreign panic out of a later shard's prepare (a bug in user code,
	// e.g. a buffered Put of a tree-reserved key) must not leave earlier
	// shards' prepared write locks behind — that would wedge every other
	// transaction touching those words forever. Prepare itself releases
	// the panicking attempt's own locks; this unwinds the rest.
	defer func() {
		if r := recover(); r != nil {
			c.dropPrepared()
			panic(r)
		}
	}()
	for _, p := range parts {
		c.cur = p
		pr, ok := p.sh.Thread.Prepare(c.prepareFn)
		if !ok {
			c.dropPrepared()
			c.lastAbortCause = ftxAbortPrepare
			if timed {
				c.notePrepare(prepStart, int64(len(parts)), 1)
			}
			return false
		}
		c.prepared = append(c.prepared, pr)
	}
	if timed {
		c.notePrepare(prepStart, int64(len(parts)), 0)
	}
	var finStart int64
	if traced {
		finStart = time.Now().UnixNano()
	}
	// The durable record is assembled before finalize (write versions are
	// drawn at the lock points) and appended after every shard published:
	// one multi-shard record per cross-shard commit, so the transaction's
	// all-or-nothing property carries onto disk — a torn tail drops the
	// whole record, never half of it.
	var logged []durable.ShardOps
	if c.wal != nil {
		n := 0
		for i, p := range parts {
			if len(p.writes.recs) == 0 {
				continue
			}
			if n == len(c.logged) {
				c.logged = append(c.logged, durable.ShardOps{})
			}
			so := &c.logged[n]
			n++
			so.Shard, so.Seq = p.si, c.prepared[i].WriteVersion()
			so.Ops = appendWriteOps(so.Ops[:0], p.writes.recs)
		}
		logged = c.logged[:n]
	}
	for i, pr := range c.prepared {
		pr.Finalize()
		c.prepared[i] = nil // finalized: no longer droppable by the unwind path
	}
	if len(logged) > 0 {
		c.wal.LogAtomicT(logged, c.traceID)
	}
	if traced {
		c.tr.Record(c.traceID, obs.SpanFtxFinalize, obs.OpAtomic, finStart, time.Now().UnixNano(), int64(len(parts)), 0)
	}
	c.stats.Commits++
	return true
}

// dropPrepared rolls back, latest first, every shard still held at its lock
// point.
func (c *Coordinator) dropPrepared() {
	for i := len(c.prepared) - 1; i >= 0; i-- {
		if c.prepared[i] != nil {
			c.prepared[i].Drop()
		}
	}
	c.prepared = c.prepared[:0]
}

// replayReads re-performs every logged read inside tx, reporting whether
// the world still matches what fn observed. The reads join tx's read set,
// so a "still matches" answer is validated at the transaction's lock point.
func replayReads(m trees.Map, tx *stm.Tx, reads []keyState) bool {
	for i := range reads {
		r := &reads[i]
		v, present := m.GetTx(tx, r.key)
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

// applyWrites replays the buffered writes inside tx, in ascending key
// order.
func applyWrites(m trees.Map, tx *stm.Tx, writes []keyState) {
	st, hasSet := m.(setterTx)
	for i := range writes {
		w := &writes[i]
		if !w.present {
			m.DeleteTx(tx, w.key)
			continue
		}
		if hasSet {
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
