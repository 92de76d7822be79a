package ftx_test

import (
	"errors"
	"testing"

	"repro/internal/forest"
	"repro/internal/ftx"
	"repro/internal/stm"
	"repro/internal/trees"
)

// crossPair returns two keys on different shards of f.
func crossPair(t *testing.T, f *forest.Forest) (a, b uint64) {
	t.Helper()
	a = 100
	for k := uint64(101); k < 100000; k++ {
		if f.ShardOf(a) != f.ShardOf(k) {
			return a, k
		}
	}
	t.Fatal("no cross-shard pair found")
	return 0, 0
}

// TestRunCrossShardTransfer: the canonical ledger transfer across shards —
// both effects commit, observed by plain readers afterwards.
func TestRunCrossShardTransfer(t *testing.T) {
	for _, kind := range trees.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			f := forest.New(kind, forest.WithShards(4), forest.WithoutMaintenance())
			defer f.Close()
			h := f.NewHandle()
			a, b := crossPair(t, f)
			h.Insert(a, 70)
			h.Insert(b, 30)

			err := h.Atomic(func(tx *ftx.Tx) error {
				av, _ := tx.Get(a)
				bv, _ := tx.Get(b)
				tx.Put(a, av-25)
				tx.Put(b, bv+25)
				return nil
			})
			if err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if v, ok := h.Get(a); !ok || v != 45 {
				t.Fatalf("a = %d,%t want 45", v, ok)
			}
			if v, ok := h.Get(b); !ok || v != 55 {
				t.Fatalf("b = %d,%t want 55", v, ok)
			}
			st := h.XactStats()
			if st.Commits != 1 || st.Fallbacks != 0 {
				t.Fatalf("stats %+v: want 1 cross-shard commit, 0 fallbacks", st)
			}
		})
	}
}

// TestRunUserAbort: a non-nil error from fn applies nothing and is
// returned verbatim.
func TestRunUserAbort(t *testing.T) {
	f := forest.New(trees.SFOpt, forest.WithShards(4), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	a, b := crossPair(t, f)
	h.Insert(a, 1)

	boom := errors.New("boom")
	err := h.Atomic(func(tx *ftx.Tx) error {
		tx.Put(b, 99)
		tx.Delete(a)
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want the fn error", err)
	}
	if !h.Contains(a) || h.Contains(b) {
		t.Fatal("aborted transaction applied effects")
	}
	if st := h.XactStats(); st.Commits != 0 || st.UserAborts != 1 {
		t.Fatalf("stats %+v: want 0 commits, 1 user abort", st)
	}
}

// TestTxReadYourWrites: buffered effects are visible to later reads of the
// same transaction, and Insert/Delete report presence against the buffer.
func TestTxReadYourWrites(t *testing.T) {
	f := forest.New(trees.SF, forest.WithShards(4), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	a, b := crossPair(t, f)
	h.Insert(a, 11)

	err := h.Atomic(func(tx *ftx.Tx) error {
		if v, ok := tx.Get(a); !ok || v != 11 {
			t.Errorf("Get(a) = %d,%t want 11", v, ok)
		}
		tx.Put(a, 12)
		if v, ok := tx.Get(a); !ok || v != 12 {
			t.Errorf("Get(a) after Put = %d,%t want 12", v, ok)
		}
		if !tx.Delete(a) {
			t.Error("Delete(a) of a buffered put reported absent")
		}
		if tx.Contains(a) {
			t.Error("Contains(a) after buffered Delete")
		}
		if tx.Delete(a) {
			t.Error("second Delete(a) reported present")
		}
		if !tx.Insert(b, 5) {
			t.Error("Insert(b) of an absent key failed")
		}
		if tx.Insert(b, 6) {
			t.Error("second Insert(b) succeeded over the buffer")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if h.Contains(a) {
		t.Fatal("a still present: buffered delete not applied")
	}
	if v, ok := h.Get(b); !ok || v != 5 {
		t.Fatalf("b = %d,%t want 5 (the first Insert's value)", v, ok)
	}
}

// TestRunSingleShardFallback: a transaction whose keys all land on one
// shard must take the fallback fast path, counted as such.
func TestRunSingleShardFallback(t *testing.T) {
	f := forest.New(trees.SFOpt, forest.WithShards(4), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	// Two keys on the same shard.
	a := uint64(100)
	b := a
	for k := uint64(101); k < 100000; k++ {
		if f.ShardOf(a) == f.ShardOf(k) {
			b = k
			break
		}
	}
	if b == a {
		t.Fatal("no co-located pair found")
	}
	h.Insert(a, 10)
	if err := h.Atomic(func(tx *ftx.Tx) error {
		v, _ := tx.Get(a)
		tx.Put(b, v)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	st := h.XactStats()
	if st.Commits != 1 || st.Fallbacks != 1 {
		t.Fatalf("stats %+v: want 1 commit via the single-shard fallback", st)
	}
	if v, ok := h.Get(b); !ok || v != 10 {
		t.Fatalf("b = %d,%t want 10", v, ok)
	}
}

// TestSingleDomain: the degenerate one-shard Domain (Single) runs the same
// API over a bare tree and always falls back.
func TestSingleDomain(t *testing.T) {
	s := stm.New()
	m := trees.New(trees.SFOpt, s)
	d := ftx.Single(m, s.NewThread())
	c := ftx.NewCoordinator(d)
	if err := c.Run(func(tx *ftx.Tx) error {
		tx.Put(1, 100)
		tx.Put(2, 200)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := c.Run(func(tx *ftx.Tx) error {
		v1, ok1 := tx.Get(1)
		v2, ok2 := tx.Get(2)
		if !ok1 || !ok2 || v1 != 100 || v2 != 200 {
			t.Errorf("read back %d,%t %d,%t", v1, ok1, v2, ok2)
		}
		tx.Delete(1)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := c.Stats()
	if st.Commits != 2 || st.Fallbacks != 2 {
		t.Fatalf("stats %+v: want every commit on the fallback path", st)
	}
	th := s.NewThread()
	if m.Contains(th, 1) || !m.Contains(th, 2) {
		t.Fatal("final state wrong")
	}
}

// TestRunEmptyTransaction: fn touching nothing commits trivially.
func TestRunEmptyTransaction(t *testing.T) {
	f := forest.New(trees.SF, forest.WithShards(2), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	if err := h.Atomic(func(tx *ftx.Tx) error { return nil }); err != nil {
		t.Fatalf("empty Atomic: %v", err)
	}
	if st := h.XactStats(); st.Commits != 1 {
		t.Fatalf("stats %+v, want 1 commit", st)
	}
}

// TestRunReadOnlyFastPath: a cross-shard transaction that writes nothing
// commits as one read-only replay, counted as ReadOnly, with a consistent
// view; a writing one over the same keys is not counted so.
func TestRunReadOnlyFastPath(t *testing.T) {
	f := forest.New(trees.SFOpt, forest.WithShards(4), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	a, b := crossPair(t, f)
	h.Insert(a, 7)
	h.Insert(b, 9)

	var av, bv uint64
	if err := h.Atomic(func(tx *ftx.Tx) error {
		av, _ = tx.Get(a)
		bv, _ = tx.Get(b)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if av != 7 || bv != 9 {
		t.Fatalf("read %d,%d want 7,9", av, bv)
	}
	st := h.XactStats()
	if st.Commits != 1 || st.ReadOnly != 1 || st.Fallbacks != 0 {
		t.Fatalf("stats %+v: want 1 read-only cross-shard commit", st)
	}
	if err := h.Atomic(func(tx *ftx.Tx) error {
		v, _ := tx.Get(a)
		tx.Put(b, v)
		return nil
	}); err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if st := h.XactStats(); st.ReadOnly != 1 || st.Commits != 2 {
		t.Fatalf("stats %+v: writing transaction misrouted to the read-only path", st)
	}
}

// TestRunRevalidationRetry: fn's observations change between execution and
// commit — the coordinator must re-execute and commit the fresh view, never
// the stale one.
func TestRunRevalidationRetry(t *testing.T) {
	f := forest.New(trees.SFOpt, forest.WithShards(4), forest.WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	h2 := f.NewHandle()
	a, b := crossPair(t, f)
	h.Insert(a, 1)

	execs := 0
	err := h.Atomic(func(tx *ftx.Tx) error {
		execs++
		v, _ := tx.Get(a)
		if execs == 1 {
			// Invalidate the read after it was logged: another handle bumps
			// a. The commit's replay must catch the mismatch and re-run fn.
			h2.Delete(a)
			h2.Insert(a, 2)
		}
		tx.Put(b, v*10)
		return nil
	})
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if execs < 2 {
		t.Fatalf("fn executed %d times, want re-execution after invalidation", execs)
	}
	if v, ok := h.Get(b); !ok || v != 20 {
		t.Fatalf("b = %d,%t want 20 (committed from the fresh read)", v, ok)
	}
	if st := h.XactStats(); st.Aborts == 0 {
		t.Fatalf("stats %+v: the stale attempt was not counted aborted", st)
	}
}
