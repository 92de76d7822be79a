package forest

import (
	"testing"

	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/trees"
)

// TestHandleTracingAllocFree gates the facade hot path: a read with tracing
// off must stay allocation-free (the only added cost is one atomic load and
// a branch), and so must a fully sampled read (traceStart, the attempt
// span, and EndOp all write into preallocated structures).
func TestHandleTracingAllocFree(t *testing.T) {
	f := New(trees.SFOpt, WithShards(1), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	for i := uint64(0); i < 128; i++ {
		h.Insert(i, i)
	}

	k := uint64(0)
	get := func() {
		h.Get(k)
		k = (k + 1) & 127
	}
	if avg := testing.AllocsPerRun(2000, get); avg != 0 {
		t.Errorf("Get with tracing off: %v allocs/op, want 0", avg)
	}

	f.SetTracer(obs.NewTracer(1, 256)) // sample every op
	if avg := testing.AllocsPerRun(2000, get); avg != 0 {
		t.Errorf("Get with 1-in-1 sampling: %v allocs/op, want 0", avg)
	}
}

// TestSpanStitchingOracle is the trace-correctness oracle: with 1-in-1
// sampling, every facade operation must yield a well-formed span set —
// exactly one op span, at least one STM attempt inside its window, exactly
// one committing attempt, contiguous attempt indices — and the retries
// visible in spans must equal the aborts the handle's one STM thread
// counted. The mix crosses shards: Move, Atomic and Update each touch two
// shards, Range all of them, and each is still one transaction on one
// thread.
func TestSpanStitchingOracle(t *testing.T) {
	f := New(trees.SFOpt, WithShards(2), WithoutMaintenance())
	defer f.Close()
	tr := obs.NewTracer(1, 4096)
	f.SetTracer(tr)
	h := f.NewHandle()

	// other returns a key on the shard k does not live on, distinct per k.
	other := func(k uint64) uint64 {
		d := k | 1<<20
		for f.ShardOf(d) == f.ShardOf(k) {
			d += 1 << 10
		}
		return d
	}
	const ops = 400
	for i := uint64(0); i < ops; i++ {
		k := i / 8
		switch i % 8 {
		case 0:
			h.Insert(k, k)
		case 1:
			h.Get(k)
		case 2:
			h.Contains(k)
		case 3:
			h.Move(k, other(k))
		case 4:
			h.Range(0, ^uint64(0), func(_, _ uint64) bool { return true })
		case 5:
			h.Atomic(func(tx *ftx.Tx) error {
				v, _ := tx.Get(other(k))
				tx.Put(other(k), v+1)
				tx.Put(k, v)
				return nil
			})
		case 6:
			h.Update(func(op *Op) {
				op.Delete(k)
				op.Delete(other(k))
			})
		case 7:
			h.Delete(k)
		}
	}

	type trace struct {
		op       *obs.Span
		attempts []obs.Span
	}
	byID := map[uint64]*trace{}
	for _, sp := range tr.Spans() {
		sp := sp
		tc := byID[sp.TraceID]
		if tc == nil {
			tc = &trace{}
			byID[sp.TraceID] = tc
		}
		switch sp.Kind {
		case obs.SpanOp:
			if tc.op != nil {
				t.Fatalf("trace %d has two op spans", sp.TraceID)
			}
			tc.op = &sp
		case obs.SpanAttempt:
			tc.attempts = append(tc.attempts, sp)
		}
	}
	if len(byID) != ops {
		t.Fatalf("ring holds %d traces, want %d (every op sampled, ring not lapped)", len(byID), ops)
	}

	retriesInSpans := uint64(0)
	for id, tc := range byID {
		if tc.op == nil {
			t.Fatalf("trace %d has attempts but no op span", id)
		}
		if len(tc.attempts) == 0 {
			t.Fatalf("trace %d (%s) has no attempt span", id, tc.op.Op)
		}
		committed := 0
		seen := make([]bool, len(tc.attempts))
		for _, at := range tc.attempts {
			if at.A == -1 {
				committed++
			} else if at.A < 0 {
				t.Fatalf("trace %d attempt has invalid abort cause %d", id, at.A)
			}
			if at.B < 0 || at.B >= int64(len(tc.attempts)) || seen[at.B] {
				t.Fatalf("trace %d attempt indices not contiguous: %+v", id, tc.attempts)
			}
			seen[at.B] = true
			if at.Start < tc.op.Start || at.End > tc.op.End {
				t.Fatalf("trace %d attempt [%d,%d] outside op window [%d,%d]",
					id, at.Start, at.End, tc.op.Start, tc.op.End)
			}
		}
		if committed != 1 {
			t.Fatalf("trace %d has %d committing attempts, want 1", id, committed)
		}
		retriesInSpans += uint64(len(tc.attempts) - 1)
	}
	// Exact reconciliation against the thread layer: maintenance is off and
	// this handle is the only actor, so its thread's commits are the ops and
	// its aborts are exactly the retries the attempt spans show.
	st := h.Stats()
	if st.Commits != ops {
		t.Fatalf("handle thread committed %d, want %d (one commit per op)", st.Commits, ops)
	}
	if retriesInSpans != st.Aborts {
		t.Fatalf("attempt spans show %d retries, thread stats count %d aborts",
			retriesInSpans, st.Aborts)
	}
	if got := tr.OpHistogram(obs.OpInsert).Snapshot().Count; got != ops/8 {
		t.Fatalf("insert latency histogram has %d samples, want %d", got, ops/8)
	}
	if h.Len() != 0 {
		t.Fatalf("%d keys left, want 0", h.Len())
	}
}
