package forest

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Handle is a per-goroutine accessor to a Forest. It lazily creates and
// caches one STM thread per shard, so a caller that only ever touches a few
// partitions never registers with the others. Handles are not safe for
// concurrent use; create one per goroutine.
type Handle struct {
	f     *Forest
	ths   []*stm.Thread    // cached per-shard threads, created on first touch
	coord *ftx.Coordinator // cross-shard transaction coordinator, on first Atomic

	// mv is the cross-shard Move in flight and moveFn the transaction body
	// that performs it, built once with the coordinator (a literal per call
	// would be an allocation per Move).
	mv struct {
		src, dst uint64
		ok       bool
	}
	moveFn func(*ftx.Tx) error

	// oplog is the reusable per-transaction effect buffer of the durable
	// path: mutating operations collect their effects here during the
	// attempt, and a reliable post-commit hook appends them to the WAL only
	// if the attempt commits. logFn is that hook, acting on the shard
	// logCommit stamped into logSi.
	oplog []durable.Op
	logSi int
	logFn func(pos uint64)

	// cur is the durable single-key Insert or Delete in flight, and
	// insertFn/deleteFn the transaction bodies that perform it. Like logFn
	// and moveFn they are built once per handle: a literal per call would
	// be an allocation per durable update.
	cur struct {
		sh   *shard
		si   int
		k, v uint64
		ok   bool
	}
	insertFn, deleteFn func(*stm.Tx)

	// smv performs the same-shard moves (the §5.4 composition, written once
	// in sftree.Mover); its OnMoved hook, logMove, registers a durable
	// forest's WAL record of the move for shard smvSi.
	smv   trees.Mover
	smvSi int

	// scan is the handle's reusable Range state (range.go): nil while a
	// Range is feeding its callback, which may scan again on this handle.
	scan *rangeScan

	// Trace state (owner-goroutine only): trID is the trace id of the
	// sampled operation currently in flight on this handle — zero when the
	// op was not sampled or no tracer is attached — read by logHook so the
	// WAL span stitches to the op.
	// trRng is the xorshift state behind the per-op sampling draw, seeded
	// non-zero at construction.
	trID  uint64
	trRng uint64
}

// handleSeq distinguishes handles' sampling streams (see Handle.trRng).
var handleSeq atomic.Uint64

// NewHandle returns a handle with no shard threads allocated yet.
func (f *Forest) NewHandle() *Handle {
	h := &Handle{
		f:     f,
		ths:   make([]*stm.Thread, len(f.shards)),
		trRng: handleSeq.Add(1)*0x9e3779b97f4a7c15 | 1,
	}
	h.logFn, h.insertFn, h.deleteFn = h.logHook, h.insertTx, h.deleteTx
	h.smv.OnMoved = h.logMove
	return h
}

// nextRand advances the handle's xorshift64 sampling stream.
func (h *Handle) nextRand() uint64 {
	x := h.trRng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	h.trRng = x
	return x
}

// traceStart makes the one sampling decision for a facade operation: on a
// sampling hit, allocate a trace id, stamp it on the handle (logHook reads
// it there) and attach the shard thread's trace context
// so the STM lifecycle records per-attempt spans. An attached-but-unsampled
// op pays one xorshift draw and a compare. Callers guard the call with an
// inline h.f.tracer.Load() nil check — the call is too big for the inliner,
// and the guard keeps the tracing-off path at one atomic load and a branch
// with no call overhead. Returns a nil tracer when the op records nothing.
// th may be nil for ops that span threads (Range, cross-shard Atomic) —
// they attach per-thread contexts themselves.
func (h *Handle) traceStart(tr *obs.Tracer, th *stm.Thread, op obs.OpKind) (*obs.Tracer, uint64, int64) {
	if !tr.Sample(h.nextRand()) {
		return nil, 0, 0
	}
	id := tr.NextID()
	h.trID = id
	if th != nil {
		th.SetTraceContext(tr, id, op)
	}
	return tr, id, time.Now().UnixNano()
}

// traceEnd closes a sampled operation: clear the thread and handle trace
// contexts, then record the facade-op span (EndOp also feeds the op-kind
// latency histogram and the slow-op table). a is the op's result code —
// 1/0 for boolean results, 0/1 for Atomic's nil/error.
func (h *Handle) traceEnd(tr *obs.Tracer, th *stm.Thread, id uint64, op obs.OpKind, start, a int64) {
	if th != nil {
		th.SetTraceContext(nil, 0, 0)
	}
	h.trID = 0
	tr.EndOp(id, op, start, time.Now().UnixNano(), a)
}

// boolA encodes a boolean op result into a span's A field.
func boolA(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// Forest returns the forest this handle accesses.
func (h *Handle) Forest() *Forest { return h.f }

// thread returns the handle's cached STM thread for shard si, registering
// one with that shard's domain on first use.
func (h *Handle) thread(si int) *stm.Thread {
	if h.ths[si] == nil {
		h.ths[si] = h.f.shards[si].stm.NewThread()
	}
	return h.ths[si]
}

// route resolves k to its shard and the handle's thread there.
func (h *Handle) route(k uint64) (*shard, *stm.Thread, int) {
	si := h.f.ShardOf(k)
	return h.f.shards[si], h.thread(si), si
}

// Stats sums the STM statistics of this handle's own per-shard threads —
// the handle's contribution to the forest, excluding other handles and the
// maintenance goroutines. Call only while the handle is quiescent.
func (h *Handle) Stats() stm.Stats {
	var t stm.Stats
	for _, st := range h.ShardStats() {
		t.Add(st)
	}
	return t
}

// ShardStats returns this handle's STM statistics split by shard (zero for
// shards the handle never touched), under the same quiescence contract as
// Stats.
func (h *Handle) ShardStats() []stm.Stats {
	out := make([]stm.Stats, len(h.ths))
	for si, th := range h.ths {
		if th != nil {
			out[si] = th.Stats()
		}
	}
	return out
}

// SameShard reports whether k1 and k2 are co-located (see Forest.SameShard).
func (h *Handle) SameShard(k1, k2 uint64) bool { return h.f.SameShard(k1, k2) }

// logCommit registers the reliable post-commit hook that appends the
// handle's collected effects to the forest's WAL with the transaction's
// commit-clock position. Call at the end of a successful attempt, after
// h.oplog holds the attempt's effects; an aborted attempt discards the
// registration with the attempt.
func (h *Handle) logCommit(tx *stm.Tx, si int) {
	if len(h.oplog) == 0 {
		return
	}
	h.logSi = si
	tx.OnCommitted(h.logFn)
}

// logHook is the post-commit hook logCommit registers (h.logFn). It runs
// inside the committing operation, so h.trID is still that op's trace id
// (zero when untraced) and the WAL record's span stitches to it.
func (h *Handle) logHook(pos uint64) {
	h.f.wal.LogUpdateT(h.logSi, pos, h.oplog, h.trID)
}

// Insert maps k to v; false when k was already present. On a durable
// forest the insert runs as a composable transaction with a logged effect
// (tree-managed allocation, so an aborted linking attempt may leak one
// arena node — the InsertTxA discipline).
func (h *Handle) Insert(k, v uint64) bool {
	sh, th, si := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, th, obs.OpInsert)
	}
	var ok bool
	if h.f.wal == nil {
		ok = sh.m.Insert(th, k, v)
	} else {
		c := &h.cur
		c.sh, c.si, c.k, c.v = sh, si, k, v
		trees.Atomic(sh.m, th, h.insertFn)
		ok = c.ok
	}
	if tr != nil {
		h.traceEnd(tr, th, id, obs.OpInsert, t0, boolA(ok))
	}
	return ok
}

// insertTx is the body of a durable Insert, acting on h.cur.
func (h *Handle) insertTx(tx *stm.Tx) {
	c := &h.cur
	h.oplog = h.oplog[:0]
	c.ok = c.sh.m.InsertTxA(tx, c.k, c.v)
	if c.ok {
		h.oplog = append(h.oplog, durable.Op{Key: c.k, Val: c.v})
		h.logCommit(tx, c.si)
	}
}

// Delete removes k; false when absent. On a durable forest the delete runs
// as a composable transaction with a logged effect, like Insert.
func (h *Handle) Delete(k uint64) bool {
	sh, th, si := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, th, obs.OpDelete)
	}
	var ok bool
	if h.f.wal == nil {
		ok = sh.m.Delete(th, k)
	} else {
		c := &h.cur
		c.sh, c.si, c.k = sh, si, k
		trees.Atomic(sh.m, th, h.deleteFn)
		ok = c.ok
	}
	if tr != nil {
		h.traceEnd(tr, th, id, obs.OpDelete, t0, boolA(ok))
	}
	return ok
}

// deleteTx is the body of a durable Delete, acting on h.cur.
func (h *Handle) deleteTx(tx *stm.Tx) {
	c := &h.cur
	h.oplog = h.oplog[:0]
	c.ok = c.sh.m.DeleteTx(tx, c.k)
	if c.ok {
		h.oplog = append(h.oplog, durable.Op{Key: c.k, Del: true})
		h.logCommit(tx, c.si)
	}
}

// Get returns the value at k.
func (h *Handle) Get(k uint64) (uint64, bool) {
	sh, th, _ := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, th, obs.OpGet)
	}
	v, ok := sh.m.Get(th, k)
	if tr != nil {
		h.traceEnd(tr, th, id, obs.OpGet, t0, boolA(ok))
	}
	return v, ok
}

// Contains reports whether k is present.
func (h *Handle) Contains(k uint64) bool {
	sh, th, _ := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, th, obs.OpContains)
	}
	ok := sh.m.Contains(th, k)
	if tr != nil {
		h.traceEnd(tr, th, id, obs.OpContains, t0, boolA(ok))
	}
	return ok
}

// Move relocates the value at src to dst; it succeeds only when src is
// present and dst absent, and it is atomic regardless of where the keys
// live. When SameShard(src, dst) the move is one ordinary transaction
// (paper §5.4); across shards it runs as one cross-shard ftx transaction
// (see Atomic), so a concurrent observer never sees the value at both keys
// or at neither — the pre-ftx insert-first/compensate protocol and its
// claim table are gone.
func (h *Handle) Move(src, dst uint64) bool {
	ssh, sth, ssi := h.route(src)
	dsi := h.f.ShardOf(dst)
	if ssi == dsi {
		var (
			tr *obs.Tracer
			id uint64
			t0 int64
		)
		if t := h.f.tracer.Load(); t != nil {
			tr, id, t0 = h.traceStart(t, sth, obs.OpMove)
		}
		ok := h.moveSameShard(ssh, sth, ssi, src, dst)
		if tr != nil {
			h.traceEnd(tr, sth, id, obs.OpMove, t0, boolA(ok))
		}
		return ok
	}
	c := h.coordinator()
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, nil, obs.OpMove)
	}
	if tr != nil {
		c.SetTraceContext(tr, id)
	}
	h.mv.src, h.mv.dst = src, dst
	// The error return is unused: moveFn always returns nil, and a
	// nil-returning Run cannot fail (it retries until commit).
	_ = c.Run(h.moveFn)
	ok := h.mv.ok
	if tr != nil {
		c.SetTraceContext(nil, 0)
		h.traceEnd(tr, nil, id, obs.OpMove, t0, boolA(ok))
	}
	return ok
}

// moveTx is the body of a cross-shard Move, acting on h.mv.
func (h *Handle) moveTx(t *ftx.Tx) error {
	m := &h.mv
	m.ok = false
	v, present := t.Get(m.src)
	if !present || t.Contains(m.dst) {
		return nil
	}
	t.Delete(m.src)
	t.Put(m.dst, v)
	m.ok = true
	return nil
}

// moveSameShard is the intra-shard move: the composition of paper §5.4 as
// one atomic transaction.
func (h *Handle) moveSameShard(sh *shard, th *stm.Thread, si int, src, dst uint64) bool {
	h.smvSi = si
	return trees.MoveWith(&h.smv, sh.m, th, src, dst)
}

// logMove is smv's OnMoved hook: the attempt moved v from src to dst, so on
// a durable forest its commit must log both effects.
func (h *Handle) logMove(tx *stm.Tx, src, dst, v uint64) {
	if h.f.wal == nil {
		return
	}
	h.oplog = append(h.oplog[:0],
		durable.Op{Key: src, Del: true},
		durable.Op{Key: dst, Val: v})
	h.logCommit(tx, h.smvSi)
}

// ftxDomain adapts a Handle to the cross-shard coordinator's Domain
// interface. The coordinator looks a shard up once per attempt, when the
// transaction first touches it.
type ftxDomain struct{ h *Handle }

func (d ftxDomain) Shards() int          { return len(d.h.f.shards) }
func (d ftxDomain) ShardOf(k uint64) int { return d.h.f.ShardOf(k) }

func (d ftxDomain) Shard(si int) ftx.Shard {
	return ftx.Shard{
		Map:     d.h.f.shards[si].m,
		Thread:  d.h.thread(si),
		Intents: &d.h.f.shards[si].intents,
	}
}

// Atomic runs fn as one atomic cross-shard transaction: fn may read and
// write keys on any shard through the buffering ftx.Tx, and every effect
// commits atomically — all or none — via the internal/ftx coordinator's
// shard-ordered two-phase commit. A non-nil error from fn aborts the
// transaction with nothing applied and is returned verbatim; otherwise
// Atomic retries on conflict (through the shards' contention managers)
// until it commits and returns nil. Like Update's fn, Atomic's fn may be
// re-executed and must be free of side effects beyond the Tx and locals it
// re-assigns.
//
// The handle has one transaction context, reset for every attempt, so an
// Atomic allocates nothing in steady state. In exchange the Tx is valid only
// inside the fn invocation it was passed to (its methods panic afterwards),
// and Atomic must not be called on this handle — nor Move across shards —
// from inside fn: that panics instead of clobbering the outer transaction.
// Compose inside one fn.
//
// When every key fn touches lands on one shard, the transaction commits as
// one ordinary single-shard transaction (no intents, no prepare); for
// hot-path compositions whose keys are known co-located, SameShard-routed
// Update remains cheaper still because it skips the coordinator's read
// buffering too.
func (h *Handle) Atomic(fn func(t *ftx.Tx) error) error {
	c := h.coordinator()
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, nil, obs.OpAtomic)
	}
	if tr != nil {
		c.SetTraceContext(tr, id)
	}
	err := c.Run(fn)
	if tr != nil {
		c.SetTraceContext(nil, 0)
		a := int64(0)
		if err != nil {
			a = 1
		}
		h.traceEnd(tr, nil, id, obs.OpAtomic, t0, a)
	}
	return err
}

// coordinator lazily creates and registers the handle's cross-shard
// transaction coordinator.
func (h *Handle) coordinator() *ftx.Coordinator {
	if h.coord == nil {
		h.coord = ftx.NewCoordinator(ftxDomain{h: h})
		h.moveFn = h.moveTx
		if h.f.wal != nil {
			h.coord.SetWAL(h.f.wal)
		}
		h.f.registerCoord(h.coord)
	}
	return h.coord
}

// XactStats reports this handle's cross-shard coordinator activity
// (zero value before the first Atomic call).
func (h *Handle) XactStats() ftx.Stats {
	if h.coord == nil {
		return ftx.Stats{}
	}
	return h.coord.Stats()
}

// scanThread prepares shard si for a read-only scan: it returns the shard's
// thread, or nil when the shard was just observed empty and the handle has
// nothing registered there — an empty shard contributes nothing to a scan,
// and skipping it avoids registering an STM thread (which the shard's
// maintenance GC would forever after have to inspect) with a domain the
// handle never otherwise touches.
func (h *Handle) scanThread(si int) *stm.Thread {
	if h.ths[si] == nil && trees.EmptyHint(h.f.shards[si].m) {
		return nil
	}
	return h.thread(si)
}

// Len counts the elements, one consistent snapshot per shard.
func (h *Handle) Len() int {
	n := 0
	for si, sh := range h.f.shards {
		th := h.scanThread(si)
		if th == nil {
			continue
		}
		n += sh.m.Size(th)
	}
	return n
}

// Keys returns the sorted keys, one consistent snapshot per shard, merged
// exactly as Range merges.
func (h *Handle) Keys() []uint64 {
	var all []uint64
	h.Range(0, ^uint64(0), func(k, _ uint64) bool {
		all = append(all, k)
		return true
	})
	return all
}

// Update runs fn as one atomic transaction on the shard owning the routing
// key k. Every key touched inside fn must belong to that same shard (check
// with SameShard); touching a foreign key panics, because silently reading
// another shard's tree from this shard's transaction would break isolation.
// fn may be re-executed and must be free of side effects beyond the Op and
// captured locals it re-assigns. On a durable forest the transaction's
// effects are logged as one WAL record at its commit position.
func (h *Handle) Update(k uint64, fn func(op *Op)) {
	sh, th, si := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, th, obs.OpUpdate)
	}
	trees.Atomic(sh.m, th, func(tx *stm.Tx) {
		op := Op{f: h.f, m: sh.m, tx: tx, si: si}
		if h.f.wal != nil {
			h.oplog = h.oplog[:0]
			op.log = &h.oplog
		}
		fn(&op)
		if op.log != nil {
			h.logCommit(tx, si)
		}
	})
	if tr != nil {
		h.traceEnd(tr, th, id, obs.OpUpdate, t0, 0)
	}
}

// Op exposes the tree operations inside a Handle.Update transaction; all
// keys must live on the shard the transaction was routed to.
type Op struct {
	f  *Forest
	m  trees.Map
	tx *stm.Tx
	si int
	// log, when non-nil, collects the transaction's effects for the durable
	// WAL record (reset by Update at the start of every attempt).
	log *[]durable.Op
}

// check panics when k is owned by a different shard than the transaction's.
func (o *Op) check(k uint64) {
	if si := o.f.ShardOf(k); si != o.si {
		panic(fmt.Sprintf("forest: key %d lives on shard %d but the transaction is bound to shard %d; route with SameShard first", k, si, o.si))
	}
}

// Insert maps k to v within the transaction; false when present.
func (o *Op) Insert(k, v uint64) bool {
	o.check(k)
	ok := o.m.InsertTxA(o.tx, k, v)
	if ok && o.log != nil {
		*o.log = append(*o.log, durable.Op{Key: k, Val: v})
	}
	return ok
}

// Delete removes k within the transaction; false when absent.
func (o *Op) Delete(k uint64) bool {
	o.check(k)
	ok := o.m.DeleteTx(o.tx, k)
	if ok && o.log != nil {
		*o.log = append(*o.log, durable.Op{Key: k, Del: true})
	}
	return ok
}

// Get returns the value at k within the transaction.
func (o *Op) Get(k uint64) (uint64, bool) { o.check(k); return o.m.GetTx(o.tx, k) }

// Contains reports membership within the transaction.
func (o *Op) Contains(k uint64) bool { o.check(k); return o.m.ContainsTx(o.tx, k) }
