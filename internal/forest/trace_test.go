package forest

import (
	"testing"

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
// visible in spans must not exceed the aborts the STM layer counted.
func TestSpanStitchingOracle(t *testing.T) {
	f := New(trees.SFOpt, WithShards(2), WithoutMaintenance())
	defer f.Close()
	tr := obs.NewTracer(1, 4096)
	f.SetTracer(tr)
	h := f.NewHandle()

	const ops = 400
	for i := uint64(0); i < ops; i++ {
		switch i % 4 {
		case 0:
			h.Insert(i, i)
		case 1:
			h.Get(i - 1)
		case 2:
			h.Contains(i)
		case 3:
			h.Delete(i - 3)
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
	// this handle is the only actor, so its threads' commits are the ops and
	// their aborts are exactly the retries the attempt spans show.
	st := h.Stats()
	if st.Commits != ops {
		t.Fatalf("handle threads committed %d, want %d (one commit per op)", st.Commits, ops)
	}
	if retriesInSpans != st.Aborts {
		t.Fatalf("attempt spans show %d retries, thread stats count %d aborts",
			retriesInSpans, st.Aborts)
	}
	if got := tr.OpHistogram(obs.OpInsert).Snapshot().Count; got != ops/4 {
		t.Fatalf("insert latency histogram has %d samples, want %d", got, ops/4)
	}
}
