package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// SpanKind names one phase of a traced operation's timeline. A complete
// sampled operation yields one SpanOp plus zero or more phase spans sharing
// its trace ID: one SpanAttempt per STM attempt and a SpanWALAppend
// stretching from the log append to the group-commit fsync that made it
// durable.
type SpanKind uint8

const (
	// SpanOp: the whole facade operation. A is the op-specific result code
	// (1 applied/found, 0 not, -1 error/abort), B is unused.
	SpanOp SpanKind = iota
	// SpanAttempt: one STM attempt inside the op. A is -1 for the committing
	// attempt, otherwise the AbortCause code; B is the attempt index (0 = first).
	SpanAttempt
	// SpanWALAppend: WAL append until fsync completion. A=the record's op
	// count, B=bytes appended.
	SpanWALAppend
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"op", "stm.attempt", "wal.append",
}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// OpKind names the facade operation a trace belongs to.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpDelete
	OpGet
	OpContains
	OpMove
	OpUpdate
	OpRange
	OpAtomic
	NumOpKinds
)

// OpNone marks spans that belong to no single facade operation (the WAL's
// append→fsync spans, which can cover records from many ops). It renders as
// "-" and is never a valid EndOp/OpHistogram argument.
const OpNone OpKind = 0xff

var opKindNames = [NumOpKinds]string{
	"insert", "delete", "get", "contains", "move", "update", "range", "atomic",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	if k == OpNone {
		return "-"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Span is one recorded phase. Plain data only — recording never allocates.
type Span struct {
	TraceID uint64   `json:"trace_id"`
	Kind    SpanKind `json:"-"`
	Op      OpKind   `json:"-"`
	Start   int64    `json:"start"` // unix nanoseconds
	End     int64    `json:"end"`   // unix nanoseconds
	A       int64    `json:"a"`
	B       int64    `json:"b"`
}

// traceSlot holds one span in atomic fields under a per-slot seqlock
// version (odd while a writer owns it), exactly like the flight recorder's
// flightSlot: concurrent wraparound reads are race-clean and the version
// makes the fields mutually consistent.
type traceSlot struct {
	ver    atomic.Uint64
	id     atomic.Uint64
	kindOp atomic.Uint64 // kind<<8 | op, packed so the slot stays 8 words
	start  atomic.Int64
	end    atomic.Int64
	a      atomic.Int64
	b      atomic.Int64
}

// slowWindowNanos is the slow-op table's window: the table keeps the K
// slowest complete operations seen in the current window and resets lazily
// when a new offer arrives after the window has elapsed.
const slowWindowNanos = int64(60e9)

// slowK is the table's capacity.
const slowK = 32

// SlowOp is one entry of the slow-operation table.
type SlowOp struct {
	TraceID uint64 `json:"trace_id"`
	Op      string `json:"op"`
	Start   int64  `json:"start"`
	DurNs   int64  `json:"dur_ns"`
}

type slowEntry struct {
	traceID uint64
	op      OpKind
	start   int64
	dur     int64
}

// slowTable is a bounded min-heap on duration: an offer either fills a free
// slot or evicts the current minimum when slower than it. The mutex is
// fine — offers happen only on the sampled path, at most one per sampled
// op — and the preallocated array keeps offers allocation-free.
type slowTable struct {
	mu       sync.Mutex
	windowAt int64
	n        int
	heap     [slowK]slowEntry
}

func (t *slowTable) offer(traceID uint64, op OpKind, start, dur int64) {
	t.mu.Lock()
	if start-t.windowAt > slowWindowNanos {
		t.windowAt = start
		t.n = 0
	}
	if t.n < slowK {
		t.heap[t.n] = slowEntry{traceID: traceID, op: op, start: start, dur: dur}
		// Sift up.
		for i := t.n; i > 0; {
			p := (i - 1) / 2
			if t.heap[p].dur <= t.heap[i].dur {
				break
			}
			t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
			i = p
		}
		t.n++
	} else if dur > t.heap[0].dur {
		t.heap[0] = slowEntry{traceID: traceID, op: op, start: start, dur: dur}
		// Sift down.
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < t.n && t.heap[l].dur < t.heap[m].dur {
				m = l
			}
			if r < t.n && t.heap[r].dur < t.heap[m].dur {
				m = r
			}
			if m == i {
				break
			}
			t.heap[i], t.heap[m] = t.heap[m], t.heap[i]
			i = m
		}
	}
	t.mu.Unlock()
}

func (t *slowTable) snapshot() []SlowOp {
	t.mu.Lock()
	out := make([]SlowOp, 0, t.n)
	for i := 0; i < t.n; i++ {
		e := t.heap[i]
		out = append(out, SlowOp{TraceID: e.traceID, Op: e.op.String(), Start: e.start, DurNs: e.dur})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurNs > out[j].DurNs })
	return out
}

// Tracer is the sampling span recorder. The sampling decision is made once
// at op start — Sample compares a caller-supplied xorshift draw against a
// precomputed threshold, so an unsampled op pays one branch and no atomic —
// and every span of a sampled op carries the trace ID handed out by NextID.
// Record claims ring slots exactly like FlightRecorder.Record (global
// sequence, per-slot seqlock, drop on collision) and never allocates. A nil
// *Tracer is inert on every method, so instrumented layers hold an optional
// tracer behind one nil/zero check.
type Tracer struct {
	every     int
	threshold uint64 // sample when draw <= threshold
	idSeq     atomic.Uint64
	seq       atomic.Uint64
	slots     []traceSlot
	sampled   Counter // sampled operations
	recorded  Counter // spans written into the ring
	opH       [NumOpKinds]Histogram
	slow      slowTable
}

// NewTracer returns a tracer sampling 1-in-sampleEvery operations
// (sampleEvery <= 1 samples every op) into a ring of ringSize spans
// (rounded up to a power of two, minimum 64).
func NewTracer(sampleEvery, ringSize int) *Tracer {
	n := 64
	for n < ringSize {
		n <<= 1
	}
	t := &Tracer{every: sampleEvery, slots: make([]traceSlot, n)}
	if sampleEvery <= 1 {
		t.every = 1
		t.threshold = math.MaxUint64
	} else {
		t.threshold = math.MaxUint64 / uint64(sampleEvery)
	}
	return t
}

// SampleEvery returns the configured sampling period (1 = every op).
func (t *Tracer) SampleEvery() int {
	if t == nil {
		return 0
	}
	return t.every
}

// Sample reports whether an op whose per-thread xorshift drew rnd should be
// traced. One compare; no atomics, no allocation.
func (t *Tracer) Sample(rnd uint64) bool {
	return t != nil && rnd <= t.threshold
}

// NextID allocates a fresh trace ID (never zero, so zero can mean
// "untraced" in carried contexts).
func (t *Tracer) NextID() uint64 {
	t.sampled.Inc()
	return t.idSeq.Add(1)
}

// Record appends one span. Allocation-free, safe from any goroutine, and a
// no-op on a nil tracer or a zero trace ID.
func (t *Tracer) Record(id uint64, kind SpanKind, op OpKind, start, end, a, b int64) {
	if t == nil || id == 0 {
		return
	}
	i := t.seq.Add(1) - 1
	s := &t.slots[i&uint64(len(t.slots)-1)]
	// Claim the slot: flip the version odd. If a writer that lapped us holds
	// it, drop the span rather than spin — the ring is diagnostics.
	v := s.ver.Load()
	if v&1 == 1 || !s.ver.CompareAndSwap(v, v+1) {
		return
	}
	s.id.Store(id)
	s.kindOp.Store(uint64(kind)<<8 | uint64(op))
	s.start.Store(start)
	s.end.Store(end)
	s.a.Store(a)
	s.b.Store(b)
	s.ver.Add(1)
	t.recorded.Inc()
}

// EndOp records the operation-level span, feeds the per-op-kind latency
// histogram from the same timestamps, and offers the op to the slow table.
// Allocation-free; no-op on a nil tracer or zero id.
func (t *Tracer) EndOp(id uint64, op OpKind, start, end, a int64) {
	if t == nil || id == 0 {
		return
	}
	t.Record(id, SpanOp, op, start, end, a, 0)
	d := end - start
	if d < 0 {
		d = 0
	}
	t.opH[op].Record(uint64(d))
	t.slow.offer(id, op, start, d)
}

// OpHistogram returns the latency histogram for one op kind (for tests and
// harnesses; the registry collector exposes them as op_latency_nanos).
func (t *Tracer) OpHistogram(op OpKind) *Histogram {
	if t == nil {
		return nil
	}
	return &t.opH[op]
}

// Spans returns the recorded spans, oldest first. Spans being written
// concurrently are skipped rather than torn.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	end := t.seq.Load()
	n := uint64(len(t.slots))
	start := uint64(0)
	if end > n {
		start = end - n
	}
	out := make([]Span, 0, end-start)
	for i := start; i < end; i++ {
		s := &t.slots[i&(n-1)]
		for tries := 0; tries < 4; tries++ {
			v1 := s.ver.Load()
			if v1&1 == 1 {
				continue
			}
			ko := s.kindOp.Load()
			sp := Span{TraceID: s.id.Load(), Kind: SpanKind(ko >> 8), Op: OpKind(ko & 0xff),
				Start: s.start.Load(), End: s.end.Load(), A: s.a.Load(), B: s.b.Load()}
			if s.ver.Load() != v1 {
				continue
			}
			if sp.TraceID != 0 {
				out = append(out, sp)
			}
			break
		}
	}
	return out
}

// SlowOps returns the slow-op table's current window, slowest first.
func (t *Tracer) SlowOps() []SlowOp {
	if t == nil {
		return nil
	}
	return t.slow.snapshot()
}

// jsonSpan is the /trace JSON shape: kind and op spelled out, duration
// precomputed.
type jsonSpan struct {
	TraceID uint64 `json:"trace_id"`
	Kind    string `json:"kind"`
	Op      string `json:"op"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	DurNs   int64  `json:"dur_ns"`
	A       int64  `json:"a"`
	B       int64  `json:"b"`
}

// WriteJSON dumps the span ring (oldest first) and the slow-op table as one
// JSON document, the shape served by the HTTP endpoint's /trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	out := struct {
		SampleEvery int        `json:"sample_every"`
		Sampled     uint64     `json:"sampled_ops"`
		Spans       []jsonSpan `json:"spans"`
		SlowOps     []SlowOp   `json:"slow_ops"`
	}{SampleEvery: t.SampleEvery(), Sampled: t.sampled.Load()}
	for _, sp := range t.Spans() {
		out.Spans = append(out.Spans, jsonSpan{TraceID: sp.TraceID, Kind: sp.Kind.String(),
			Op: sp.Op.String(), Start: sp.Start, End: sp.End, DurNs: sp.End - sp.Start,
			A: sp.A, B: sp.B})
	}
	out.SlowOps = t.SlowOps()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// RegisterObs registers a collector exposing the tracer's series: the
// sampled-op and recorded-span counters and one op_latency_nanos histogram
// per op kind that has observations, labeled op="<kind>".
func (t *Tracer) RegisterObs(r *Registry) {
	r.RegisterCollector(func(emit func(Sample)) {
		emit(Sample{Name: "trace_sampled_ops_total", Kind: KindCounter,
			Help: "Operations selected for tracing.", Value: float64(t.sampled.Load())})
		emit(Sample{Name: "trace_spans_total", Kind: KindCounter,
			Help: "Spans written into the trace ring.", Value: float64(t.recorded.Load())})
		for op := OpKind(0); op < NumOpKinds; op++ {
			h := t.opH[op].Snapshot()
			if h.Count == 0 {
				continue
			}
			emit(Sample{Name: "op_latency_nanos", Label: `op="` + op.String() + `"`,
				Kind: KindHistogram, Help: "Sampled end-to-end operation latency, nanoseconds.",
				Value: float64(h.Sum), Hist: &h})
		}
	})
}
