package stm

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAtomicROUnloggedThenLogged drives one AtomicRO call through both of
// its phases from a single goroutine: the first attempt logs nothing and,
// on meeting a word a second thread committed after its snapshot, aborts —
// once, under its own cause, without backoff — and the retry is an ordinary
// logged CTL attempt that extends over the next such word instead. Run
// untraced and traced: both lifecycle loops must honour the hand-over.
func TestAtomicROUnloggedThenLogged(t *testing.T) {
	for _, traced := range []bool{false, true} {
		s := New()
		th, writer := s.NewThread(), s.NewThread()
		var a, b Word
		bump := func() { writer.Atomic(func(tx *Tx) { tx.Write(&b, tx.Read(&b)+1) }) }

		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer(1, 64)
			th.SetTraceContext(tr, tr.NextID(), obs.OpRange)
		}
		ops := th.OpCount()
		attempt := 0
		var sum uint64
		th.AtomicRO(func(tx *Tx) {
			attempt++
			if !th.Pending() {
				t.Error("pending flag is down inside AtomicRO")
			}
			rv := tx.Snapshot()
			sum = tx.Read(&a)
			if first := attempt == 1; tx.unlogged != first {
				t.Errorf("attempt %d: unlogged = %v", attempt, tx.unlogged)
			}
			bump() // b is now newer than this attempt's snapshot
			sum += tx.Read(&b)
			// Only the logged retry gets here, by extending.
			if attempt != 2 {
				t.Errorf("attempt %d read past a word newer than its snapshot", attempt)
			}
			if len(tx.reads) != 2 {
				t.Errorf("logged retry holds %d reads, want 2", len(tx.reads))
			}
			if tx.Snapshot() <= rv {
				t.Error("logged retry did not extend its snapshot")
			}
		})
		th.SetTraceContext(nil, 0, 0)

		st := th.Stats()
		if attempt != 2 || sum != 2 {
			t.Errorf("traced=%v: %d attempts, sum %d; want 2 attempts, sum 2", traced, attempt, sum)
		}
		if st.Commits != 1 || st.Aborts != 1 || st.AbortCauses[AbortUnlogged] != 1 || st.Retries != 1 {
			t.Errorf("traced=%v: commits %d aborts %d (unlogged %d) retries %d; want 1, 1 (1), 1",
				traced, st.Commits, st.Aborts, st.AbortCauses[AbortUnlogged], st.Retries)
		}
		if st.Extensions != 1 || st.BackoffNanos != 0 {
			t.Errorf("traced=%v: extensions %d, backoff %d ns; want 1 and no backoff", traced, st.Extensions, st.BackoffNanos)
		}
		if st.Reads != 4 || st.MaxOpReads != 4 {
			t.Errorf("traced=%v: reads %d, max per op %d; want 4 and 4 (unlogged reads count)", traced, st.Reads, st.MaxOpReads)
		}
		if th.OpCount() != ops+1 || th.Pending() {
			t.Errorf("traced=%v: op count %d (from %d), pending %v; want one completed op, idle", traced, th.OpCount(), ops, th.Pending())
		}
		if traced {
			var causes []int64
			for _, sp := range tr.Spans() {
				if sp.Kind == obs.SpanAttempt {
					causes = append(causes, sp.A)
				}
			}
			if len(causes) != 2 || causes[0] != int64(AbortUnlogged) || causes[1] != -1 {
				t.Errorf("attempt spans carry %v, want [%d -1]", causes, AbortUnlogged)
			}
		}

		// The thread's descriptor is an ordinary one again.
		th.Atomic(func(tx *Tx) {
			tx.Write(&a, tx.Read(&a)+1)
			if tx.unlogged || len(tx.reads) != 1 {
				t.Errorf("Atomic after AtomicRO: unlogged %v, %d reads logged", tx.unlogged, len(tx.reads))
			}
		})
	}
}

// TestAtomicROQuiet: with no writer about, the one attempt commits with an
// empty read set at the snapshot it began with.
func TestAtomicROQuiet(t *testing.T) {
	s := New(WithMode(Elastic)) // AtomicRO is CTL whatever the default
	th := s.NewThread()
	words := make([]Word, 100)
	th.Atomic(func(tx *Tx) {
		for i := range words {
			tx.Write(&words[i], uint64(i))
		}
	})
	var sum uint64
	th.AtomicRO(func(tx *Tx) {
		sum = 0
		for i := range words {
			sum += tx.Read(&words[i])
		}
		if len(tx.reads) != 0 || tx.windowN != 0 {
			t.Errorf("unlogged attempt logged %d reads, %d in the elastic window", len(tx.reads), tx.windowN)
		}
		if tx.Mode() != CTL || tx.Snapshot() != s.Now() {
			t.Errorf("mode %v at snapshot %d, want CTL at %d", tx.Mode(), tx.Snapshot(), s.Now())
		}
	})
	if st := th.Stats(); sum != 4950 || st.Aborts != 0 || st.Reads != 100 {
		t.Errorf("sum %d, %d aborts, %d reads; want 4950, 0, 100", sum, st.Aborts, st.Reads)
	}
}

// TestAtomicROWritePanics: a read-only transaction that logs nothing must
// never reach commit with a write set.
func TestAtomicROWritePanics(t *testing.T) {
	th := New().NewThread()
	var w Word
	defer func() {
		if recover() == nil {
			t.Fatal("Write inside AtomicRO did not panic")
		}
	}()
	th.AtomicRO(func(tx *Tx) { tx.Write(&w, 1) })
}

// TestAtomicROZeroAllocs: scans of any length stay off the allocator — there
// is no read set to spill.
func TestAtomicROZeroAllocs(t *testing.T) {
	th := New().NewThread()
	words := make([]Word, 4*inlineReads)
	var sum uint64
	body := func(tx *Tx) {
		sum = 0
		for i := range words {
			sum += tx.Read(&words[i])
		}
	}
	if avg := testing.AllocsPerRun(100, func() { th.AtomicRO(body) }); avg != 0 {
		t.Errorf("AtomicRO over %d words allocates %.2f times per run, want 0", len(words), avg)
	}
	if cap(th.tx.reads) != inlineReads {
		t.Errorf("read set grew to %d entries under unlogged scans", cap(th.tx.reads))
	}
}

// TestAtomicROTakesWriterGate: a read-only operation that keeps losing to a
// writer takes the domain's writer gate after gateRetries lost attempts; a
// writing attempt that starts while the gate is held waits until the scan
// commits, and the gate is released with the commit.
func TestAtomicROTakesWriterGate(t *testing.T) {
	s := New()
	th, writer := s.NewThread(), s.NewThread()
	var a, b, c Word
	attempt := 0
	var waiting sync.WaitGroup
	th.AtomicRO(func(tx *Tx) {
		attempt++
		tx.Read(&a)
		if attempt <= gateRetries {
			// Invalidate a and make b newer than the snapshot: reading b
			// must extend, and the extension fails on a.
			writer.Atomic(func(wtx *Tx) {
				wtx.Write(&a, wtx.Read(&a)+1)
				wtx.Write(&b, wtx.Read(&b)+1)
			})
			tx.Read(&b)
			t.Fatalf("attempt %d survived a conflicting commit", attempt)
		}
		if g := s.gate.Load(); g != 1 || !th.gated {
			t.Fatalf("attempt %d: gate = %d, gated = %t; want the gate held", attempt, g, th.gated)
		}
		if attempt > gateRetries+1 {
			return // a retry of the gated attempt: the writer is already waiting
		}
		waiting.Add(1)
		before := writer.liveStats().Commits
		go func() {
			defer waiting.Done()
			writer.Atomic(func(wtx *Tx) { wtx.Write(&c, 1) })
		}()
		time.Sleep(20 * time.Millisecond)
		if writer.liveStats().Commits != before {
			t.Error("a writer committed while the gate was held")
		}
		tx.Read(&b)
	})
	waiting.Wait()
	if g := s.gate.Load(); g != 0 || th.gated {
		t.Fatalf("after commit: gate = %d, gated = %t; want it released", g, th.gated)
	}
	if c.Plain() != 1 {
		t.Fatal("the held-back writer never committed")
	}
}
