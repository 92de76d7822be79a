package forest

import (
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Handle is a per-goroutine accessor to a Forest. It registers one STM
// thread with the forest's domain, whichever shards it touches: every
// registered thread is scanned by every tree's epoch collector
// (sftree.Tree.RunMaintenancePass), so a thread per shard would cost each
// sweep S times as much. Handles are not safe for concurrent use; create
// one per goroutine.
type Handle struct {
	f     *Forest
	th    *stm.Thread
	coord *ftx.Coordinator // Atomic's transaction coordinator, on first use

	// effects is the reusable per-transaction effect buffer of the durable
	// path: mutating operations collect their effects here during the
	// attempt, and a reliable post-commit hook, logFn, appends them to the
	// WAL as one record only if the attempt commits.
	effects []durable.Op
	logFn   func(pos uint64)

	// cur is the durable single-key Insert or Delete in flight, and
	// insertFn/deleteFn the transaction bodies that perform it. Like logFn
	// they are built once per handle: a literal per call would be an
	// allocation per durable update.
	cur struct {
		m    trees.Map
		k, v uint64
		ok   bool
	}
	insertFn, deleteFn func(*stm.Tx)

	// mv performs moves (the §5.4 composition, written once in
	// sftree.Mover) between the source and destination keys' trees; its
	// OnMoved hook, logMove, registers a durable forest's WAL record of the
	// move.
	mv trees.Mover

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

// NewHandle returns a handle with its STM thread registered.
func (f *Forest) NewHandle() *Handle {
	h := &Handle{
		f:     f,
		th:    f.stm.NewThread(),
		trRng: handleSeq.Add(1)*0x9e3779b97f4a7c15 | 1,
	}
	h.logFn, h.insertFn, h.deleteFn = h.logHook, h.insertTx, h.deleteTx
	h.mv.OnMoved = h.logMove
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
// it there) and attach the thread's trace context so the STM lifecycle
// records per-attempt spans. An attached-but-unsampled op pays one xorshift
// draw and a compare. Callers guard the call with an inline
// h.f.tracer.Load() nil check — the call is too big for the inliner, and
// the guard keeps the tracing-off path at one atomic load and a branch with
// no call overhead. Returns a nil tracer when the op records nothing.
func (h *Handle) traceStart(tr *obs.Tracer, op obs.OpKind) (*obs.Tracer, uint64, int64) {
	if !tr.Sample(h.nextRand()) {
		return nil, 0, 0
	}
	id := tr.NextID()
	h.trID = id
	h.th.SetTraceContext(tr, id, op)
	return tr, id, time.Now().UnixNano()
}

// traceEnd closes a sampled operation: clear the thread and handle trace
// contexts, then record the facade-op span (EndOp also feeds the op-kind
// latency histogram and the slow-op table). a is the op's result code —
// 1/0 for boolean results, 0/1 for Atomic's nil/error.
func (h *Handle) traceEnd(tr *obs.Tracer, id uint64, op obs.OpKind, start, a int64) {
	h.th.SetTraceContext(nil, 0, 0)
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

// route resolves k to its shard's tree.
func (h *Handle) route(k uint64) trees.Map { return h.f.maps[h.f.ShardOf(k)] }

// Stats reports the STM statistics of this handle's thread — the handle's
// contribution to the forest, excluding other handles and the maintenance
// goroutines. Call only while the handle is quiescent.
func (h *Handle) Stats() stm.Stats { return h.th.Stats() }

// logCommit registers the reliable post-commit hook that appends the
// handle's collected effects to the forest's WAL with the transaction's
// commit-clock position. Call at the end of a successful attempt, after
// h.effects holds the attempt's effects; an aborted attempt discards the
// registration with the attempt.
func (h *Handle) logCommit(tx *stm.Tx) {
	if len(h.effects) == 0 {
		return
	}
	tx.OnCommitted(h.logFn)
}

// logHook is the post-commit hook logCommit registers (h.logFn). It runs
// inside the committing operation, so h.trID is still that op's trace id
// (zero when untraced) and the WAL record's span stitches to it.
func (h *Handle) logHook(pos uint64) {
	h.f.wal.Append(pos, h.effects, h.trID)
}

// Insert maps k to v; false when k was already present. On a durable
// forest the insert runs as a composable transaction with a logged effect
// (tree-managed allocation, so an aborted linking attempt may leak one
// arena node — the InsertTxA discipline).
func (h *Handle) Insert(k, v uint64) bool {
	m := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpInsert)
	}
	var ok bool
	if h.f.wal == nil {
		ok = m.Insert(h.th, k, v)
	} else {
		c := &h.cur
		c.m, c.k, c.v = m, k, v
		trees.Atomic(m, h.th, h.insertFn)
		ok = c.ok
	}
	if tr != nil {
		h.traceEnd(tr, id, obs.OpInsert, t0, boolA(ok))
	}
	return ok
}

// insertTx is the body of a durable Insert, acting on h.cur.
func (h *Handle) insertTx(tx *stm.Tx) {
	c := &h.cur
	h.effects = h.effects[:0]
	c.ok = c.m.InsertTxA(tx, c.k, c.v)
	if c.ok {
		h.effects = append(h.effects, durable.Op{Key: c.k, Val: c.v})
		h.logCommit(tx)
	}
}

// Delete removes k; false when absent. On a durable forest the delete runs
// as a composable transaction with a logged effect, like Insert.
func (h *Handle) Delete(k uint64) bool {
	m := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpDelete)
	}
	var ok bool
	if h.f.wal == nil {
		ok = m.Delete(h.th, k)
	} else {
		c := &h.cur
		c.m, c.k = m, k
		trees.Atomic(m, h.th, h.deleteFn)
		ok = c.ok
	}
	if tr != nil {
		h.traceEnd(tr, id, obs.OpDelete, t0, boolA(ok))
	}
	return ok
}

// deleteTx is the body of a durable Delete, acting on h.cur.
func (h *Handle) deleteTx(tx *stm.Tx) {
	c := &h.cur
	h.effects = h.effects[:0]
	c.ok = c.m.DeleteTx(tx, c.k)
	if c.ok {
		h.effects = append(h.effects, durable.Op{Key: c.k, Del: true})
		h.logCommit(tx)
	}
}

// Get returns the value at k.
func (h *Handle) Get(k uint64) (uint64, bool) {
	m := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpGet)
	}
	v, ok := m.Get(h.th, k)
	if tr != nil {
		h.traceEnd(tr, id, obs.OpGet, t0, boolA(ok))
	}
	return v, ok
}

// Contains reports whether k is present.
func (h *Handle) Contains(k uint64) bool {
	m := h.route(k)
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpContains)
	}
	ok := m.Contains(h.th, k)
	if tr != nil {
		h.traceEnd(tr, id, obs.OpContains, t0, boolA(ok))
	}
	return ok
}

// Move relocates the value at src to dst; it succeeds only when src is
// present and dst absent. It is one transaction — the composition of paper
// §5.4 over src's tree and dst's tree, which are the same tree when the
// keys share a shard — so a concurrent observer never sees the value at
// both keys or at neither.
func (h *Handle) Move(src, dst uint64) bool {
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpMove)
	}
	sm, dm := h.route(src), h.route(dst)
	trees.Atomic(sm, h.th, h.mv.Bind(sm, dm, src, dst))
	ok := h.mv.Moved()
	if tr != nil {
		h.traceEnd(tr, id, obs.OpMove, t0, boolA(ok))
	}
	return ok
}

// logMove is mv's OnMoved hook: the attempt moved v from src to dst, so on
// a durable forest its commit must log both effects.
func (h *Handle) logMove(tx *stm.Tx, src, dst, v uint64) {
	if h.f.wal == nil {
		return
	}
	h.effects = append(h.effects[:0], durable.Op{Key: src, Del: true}, durable.Op{Key: dst, Val: v})
	h.logCommit(tx)
}

// Atomic runs fn as one atomic transaction: fn runs inside one STM
// transaction, may read and write keys on any shard through the ftx.Tx,
// and every effect commits atomically — all or none — when the transaction
// applies fn's buffered writes (internal/ftx). A non-nil error from fn
// aborts the transaction with nothing applied and is returned verbatim;
// otherwise Atomic retries on conflict (through the domain's contention
// manager) until it commits and returns nil. Like Update's fn, Atomic's fn
// may be re-executed and must be free of side effects beyond the Tx and
// locals it re-assigns.
//
// The handle has one transaction context, reset for every attempt, so an
// Atomic allocates nothing in steady state. In exchange the Tx is valid only
// inside the fn invocation it was passed to (its methods panic afterwards),
// and Atomic must not be called on this handle from inside fn: that panics
// instead of clobbering the outer transaction. Compose inside one fn. Any
// other operation of this handle from inside fn panics too, as a nested
// transaction of the handle's thread, as it does from inside Update.
//
// Update is cheaper when fn needs no buffering: its operations write the
// trees directly.
func (h *Handle) Atomic(fn func(t *ftx.Tx) error) error {
	c := h.coordinator()
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpAtomic)
	}
	if tr != nil {
		c.SetTraceID(id)
	}
	err := c.Run(fn)
	if tr != nil {
		c.SetTraceID(0)
		a := int64(0)
		if err != nil {
			a = 1
		}
		h.traceEnd(tr, id, obs.OpAtomic, t0, a)
	}
	return err
}

// coordinator lazily creates and registers the handle's transaction
// coordinator.
func (h *Handle) coordinator() *ftx.Coordinator {
	if h.coord == nil {
		h.coord = ftx.NewCoordinator(ftx.Domain{Thread: h.th, Maps: h.f.maps, ShardOf: h.f.ShardOf})
		if h.f.wal != nil {
			h.coord.SetWAL(h.f.wal)
		}
		h.f.registerCoord(h.coord)
	}
	return h.coord
}

// XactStats reports this handle's Atomic activity (zero value before the
// first Atomic call).
func (h *Handle) XactStats() ftx.Stats {
	if h.coord == nil {
		return ftx.Stats{}
	}
	return h.coord.Stats()
}

// Keys returns the sorted keys, one consistent snapshot of the forest,
// merged exactly as Range merges.
func (h *Handle) Keys() []uint64 {
	var all []uint64
	h.Range(0, ^uint64(0), func(k, _ uint64) bool {
		all = append(all, k)
		return true
	})
	return all
}

// Update runs fn as one atomic transaction over the whole forest: each Op
// routes its key to the owning shard's tree, and every operation belongs to
// the one transaction whichever shards it touches. fn may be re-executed
// and must be free of side effects beyond the Op and captured locals it
// re-assigns. On a durable forest the transaction's effects are logged as
// one WAL record at its commit position.
func (h *Handle) Update(fn func(op *Op)) {
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpUpdate)
	}
	trees.Atomic(h.f.maps[0], h.th, func(tx *stm.Tx) {
		op := Op{f: h.f, tx: tx}
		if h.f.wal != nil {
			h.effects = h.effects[:0]
			op.log = &h.effects
		}
		fn(&op)
		if op.log != nil {
			h.logCommit(tx)
		}
	})
	if tr != nil {
		h.traceEnd(tr, id, obs.OpUpdate, t0, 0)
	}
}

// Op exposes the tree operations inside a Handle.Update transaction, each
// routed to the tree of the shard owning its key.
type Op struct {
	f  *Forest
	tx *stm.Tx
	// log, when non-nil, collects the transaction's effects for the durable
	// WAL record (reset by Update at the start of every attempt).
	log *[]durable.Op
}

// Insert maps k to v within the transaction; false when present.
func (o *Op) Insert(k, v uint64) bool {
	ok := o.f.maps[o.f.ShardOf(k)].InsertTxA(o.tx, k, v)
	if ok && o.log != nil {
		*o.log = append(*o.log, durable.Op{Key: k, Val: v})
	}
	return ok
}

// Delete removes k within the transaction; false when absent.
func (o *Op) Delete(k uint64) bool {
	ok := o.f.maps[o.f.ShardOf(k)].DeleteTx(o.tx, k)
	if ok && o.log != nil {
		*o.log = append(*o.log, durable.Op{Key: k, Del: true})
	}
	return ok
}

// Get returns the value at k within the transaction.
func (o *Op) Get(k uint64) (uint64, bool) { return o.f.maps[o.f.ShardOf(k)].GetTx(o.tx, k) }

// Contains reports membership within the transaction.
func (o *Op) Contains(k uint64) bool { return o.f.maps[o.f.ShardOf(k)].ContainsTx(o.tx, k) }
