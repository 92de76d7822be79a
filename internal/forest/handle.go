package forest

import (
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
	"repro/internal/txmap"
)

// Handle is a per-goroutine accessor to a Forest. It registers one STM
// thread with the forest's domain, whichever shards it touches: every
// registered thread is snapshotted by every thread's §3.4 limbo
// (stm.Thread.Reclaim, stepped by each shard's sweep), so a thread per
// shard would cost each step S times as much. Handles are not safe for
// concurrent use; create one per goroutine.
//
// Every operation runs one way whether or not the forest is durable or
// traced: its transaction first, then — on a durable forest, when it
// changed something — one WAL record at the thread's LastCommit position.
type Handle struct {
	f     *Forest
	th    *stm.Thread
	coord *ftx.Coordinator // Atomic's transaction coordinator, on first use

	// effects is the reusable buffer of the WAL record a mutating operation
	// appends on a durable forest (logEffects).
	effects []durable.Op

	// mv performs moves (the §5.4 composition, written once in
	// txmap.Mover) between the source and destination keys' trees.
	mv txmap.Mover

	// scan is the handle's reusable Range state (range.go): nil while a
	// Range is feeding its callback, which may scan again on this handle.
	scan *rangeScan

	// trRng is the xorshift state behind the per-op sampling draw, seeded
	// non-zero at construction. Owner-goroutine only.
	trRng uint64
}

// handleSeq distinguishes handles' sampling streams (see Handle.trRng).
var handleSeq atomic.Uint64

// NewHandle returns a handle with its STM thread registered.
func (f *Forest) NewHandle() *Handle {
	return &Handle{
		f:     f,
		th:    f.stm.NewThread(),
		trRng: handleSeq.Add(1)*0x9e3779b97f4a7c15 | 1,
	}
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

// span is one facade operation's trace state: the zero span (tr nil) when
// no tracer is attached or the op was not sampled, which records nothing.
type span struct {
	tr *obs.Tracer
	id uint64 // the trace id; the op's WAL record carries it too
	t0 int64
	op obs.OpKind
}

// begin opens op's span. It inlines, so with tracing off an operation pays
// one atomic load and a branch (make inline checks it).
func (h *Handle) begin(op obs.OpKind) span {
	if h.f.tracer.Load() != nil {
		return h.traceStart(op)
	}
	return span{}
}

// end closes sp with the op's result code a — 1/0 for boolean results,
// 0/1 for Atomic's nil/error. It inlines, like begin.
func (h *Handle) end(sp span, a int64) {
	if sp.tr != nil {
		h.traceEnd(sp, a)
	}
}

// traceStart makes the one sampling decision for an operation: on a hit,
// allocate a trace id and attach the thread's trace context so the STM
// retry loop records per-attempt spans. An attached-but-unsampled op pays
// one xorshift draw and a compare. It loads the tracer itself — passing it
// from begin would cost begin its inlining — so a tracer detached since
// begin's check samples nothing.
func (h *Handle) traceStart(op obs.OpKind) span {
	tr := h.f.tracer.Load()
	if !tr.Sample(h.nextRand()) {
		return span{}
	}
	id := tr.NextID()
	h.th.SetTraceContext(tr, id, op)
	return span{tr: tr, id: id, t0: time.Now().UnixNano(), op: op}
}

// traceEnd clears the thread's trace context and records the facade-op span
// (EndOp also feeds the op-kind latency histogram and the slow-op table).
func (h *Handle) traceEnd(sp span, a int64) {
	h.th.SetTraceContext(nil, 0, 0)
	sp.tr.EndOp(sp.id, sp.op, sp.t0, time.Now().UnixNano(), a)
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

// logEffects appends h.effects to a durable forest's WAL as the record of
// the transaction the handle's thread committed last, at its commit
// position. It runs after the transaction returned: the log sorts records
// by position, so the delay since publication is harmless (durable.Source).
func (h *Handle) logEffects(sp span) {
	h.f.wal.Append(h.th.LastCommit(), h.effects, sp.id)
}

// Insert maps k to v; false when k was already present.
func (h *Handle) Insert(k, v uint64) bool {
	sp := h.begin(obs.OpInsert)
	ok := h.route(k).Insert(h.th, k, v)
	if ok && h.f.wal != nil {
		h.effects = append(h.effects[:0], durable.Op{Key: k, Val: v})
		h.logEffects(sp)
	}
	h.end(sp, boolA(ok))
	return ok
}

// Delete removes k; false when absent.
func (h *Handle) Delete(k uint64) bool {
	sp := h.begin(obs.OpDelete)
	ok := h.route(k).Delete(h.th, k)
	if ok && h.f.wal != nil {
		h.effects = append(h.effects[:0], durable.Op{Key: k, Del: true})
		h.logEffects(sp)
	}
	h.end(sp, boolA(ok))
	return ok
}

// Get returns the value at k.
func (h *Handle) Get(k uint64) (uint64, bool) {
	sp := h.begin(obs.OpGet)
	v, ok := h.route(k).Get(h.th, k)
	h.end(sp, boolA(ok))
	return v, ok
}

// Contains reports whether k is present.
func (h *Handle) Contains(k uint64) bool {
	sp := h.begin(obs.OpContains)
	ok := h.route(k).Contains(h.th, k)
	h.end(sp, boolA(ok))
	return ok
}

// Move relocates the value at src to dst; it succeeds only when src is
// present and dst absent. It is one transaction — the composition of paper
// §5.4 over src's tree and dst's tree, which are the same tree when the
// keys share a shard — so a concurrent observer never sees the value at
// both keys or at neither.
func (h *Handle) Move(src, dst uint64) bool {
	sp := h.begin(obs.OpMove)
	sm, dm := h.route(src), h.route(dst)
	trees.Atomic(sm, h.th, h.mv.Bind(sm, dm, src, dst))
	ok := h.mv.Moved()
	if ok && src != dst && h.f.wal != nil {
		h.effects = append(h.effects[:0], durable.Op{Key: src, Del: true}, durable.Op{Key: dst, Val: h.mv.Value()})
		h.logEffects(sp)
	}
	h.end(sp, boolA(ok))
	return ok
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
	sp := h.begin(obs.OpAtomic)
	c.SetTraceID(sp.id)
	err := c.Run(fn)
	a := int64(0)
	if err != nil {
		a = 1
	}
	h.end(sp, a)
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
// the one transaction whichever shards it touches. The transaction is CTL
// whatever the forest's default mode: fn may write values computed from
// what it read, so every read is validated at commit, where an elastic
// transaction would cut the earlier ones. fn may be re-executed and must
// be free of side effects beyond the Op and captured locals it re-assigns.
// On a durable forest the transaction's effects are logged as one WAL
// record at its commit position.
func (h *Handle) Update(fn func(op *Op)) {
	sp := h.begin(obs.OpUpdate)
	h.th.AtomicMode(stm.CTL, func(tx *stm.Tx) {
		op := Op{f: h.f, tx: tx}
		if h.f.wal != nil {
			h.effects = h.effects[:0]
			op.log = &h.effects
		}
		fn(&op)
	})
	if h.f.wal != nil {
		h.logEffects(sp)
	}
	h.end(sp, 0)
}

// Op exposes the tree operations inside a Handle.Update transaction, each
// routed to the tree of the shard owning its key.
type Op struct {
	f  *Forest
	tx *stm.Tx
	// log, when non-nil, collects the attempt's effects for the durable WAL
	// record Update appends once the transaction has returned (reset at the
	// start of every attempt).
	log *[]durable.Op
}

// Insert maps k to v within the transaction; false when present.
func (o *Op) Insert(k, v uint64) bool {
	ok := o.f.maps[o.f.ShardOf(k)].InsertTx(o.tx, k, v)
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
