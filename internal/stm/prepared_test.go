package stm

import (
	"sync"
	"testing"
)

// TestPrepareFinalizePublishes: a prepared transaction's writes are
// invisible until Finalize, then visible with an advanced version.
func TestPrepareFinalizePublishes(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word

	p, ok := th.Prepare(func(tx *Tx) { tx.Write(&w, 42) })
	if !ok {
		t.Fatal("Prepare aborted on an uncontended word")
	}
	if !isLocked(w.meta.Load()) {
		t.Fatal("prepared write set not locked")
	}
	if w.Plain() == 42 {
		t.Fatal("prepared write published before Finalize")
	}
	p.Finalize()
	if got := w.Plain(); got != 42 {
		t.Fatalf("value %d after Finalize, want 42", got)
	}
	if isLocked(w.meta.Load()) {
		t.Fatal("word still locked after Finalize")
	}
	if metaVersion(w.meta.Load()) == 0 {
		t.Fatal("published version not advanced")
	}
	st := th.Stats()
	if st.Prepares != 1 || st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("stats %+v, want 1 prepare, 1 commit, 0 aborts", st)
	}
}

// TestPrepareDropRestores: Drop releases the locks with the pre-lock
// metadata restored and publishes nothing.
func TestPrepareDropRestores(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	th.Atomic(func(tx *Tx) { tx.Write(&w, 7) })
	metaBefore := w.meta.Load()

	p, ok := th.Prepare(func(tx *Tx) { tx.Write(&w, 99) })
	if !ok {
		t.Fatal("Prepare aborted")
	}
	p.Drop()
	if got := w.Plain(); got != 7 {
		t.Fatalf("value %d after Drop, want the pre-prepare 7", got)
	}
	if got := w.meta.Load(); got != metaBefore {
		t.Fatalf("meta %#x after Drop, want restored %#x", got, metaBefore)
	}
	st := th.Stats()
	if st.Aborts != 1 {
		t.Fatalf("Drop charged %d aborts, want 1", st.Aborts)
	}
}

// TestPrepareValidationFailure: a concurrent commit between a logged read
// and Prepare's lock point must abort the prepare.
func TestPrepareValidationFailure(t *testing.T) {
	s := New()
	th1 := s.NewThread()
	th2 := s.NewThread()
	var r, w Word

	_, ok := th1.Prepare(func(tx *Tx) {
		_ = tx.Read(&r)
		// Invalidate the read before the lock point: th2 commits a write
		// to r. Running another thread's whole transaction inside fn is
		// fine for the test — fn has not reached prepare yet.
		th2.Atomic(func(tx2 *Tx) { tx2.Write(&r, 1) })
		tx.Write(&w, 5)
	})
	if ok {
		t.Fatal("Prepare validated a stale read")
	}
	if w.Plain() == 5 {
		t.Fatal("aborted prepare published its write")
	}
	if isLocked(w.meta.Load()) || isLocked(r.meta.Load()) {
		t.Fatal("aborted prepare left a lock behind")
	}
	if st := th1.Stats(); st.Aborts != 1 || st.Prepares != 0 {
		t.Fatalf("stats %+v, want 1 abort, 0 prepares", st)
	}
}

// TestPrepareLockConflict: two prepares with overlapping write sets — the
// second must fail cleanly while the first still finalizes.
func TestPrepareLockConflict(t *testing.T) {
	s := New()
	th1 := s.NewThread()
	th2 := s.NewThread()
	var w Word

	p1, ok := th1.Prepare(func(tx *Tx) { tx.Write(&w, 1) })
	if !ok {
		t.Fatal("first Prepare aborted")
	}
	if _, ok := th2.Prepare(func(tx *Tx) { tx.Write(&w, 2) }); ok {
		t.Fatal("second Prepare acquired a lock the first still holds")
	}
	p1.Finalize()
	if got := w.Plain(); got != 1 {
		t.Fatalf("value %d, want the first prepare's 1", got)
	}
}

// TestPreparedBlocksConcurrentWriters: while a transaction is prepared, a
// concurrent Atomic writer to the same word keeps aborting and only
// commits after Finalize — the lock-point protection the cross-shard
// coordinator's atomicity argument rests on.
func TestPreparedBlocksConcurrentWriters(t *testing.T) {
	s := New()
	th1 := s.NewThread()
	th2 := s.NewThread()
	var w Word

	p, ok := th1.Prepare(func(tx *Tx) { tx.Write(&w, 10) })
	if !ok {
		t.Fatal("Prepare aborted")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th2.Atomic(func(tx *Tx) { tx.Write(&w, 20) })
	}()
	p.Finalize()
	wg.Wait()
	// th2's write must have serialized after the finalize.
	if got := w.Plain(); got != 20 {
		t.Fatalf("value %d, want the writer's 20 serialized after Finalize", got)
	}
	if th2.Stats().Aborts == 0 {
		t.Log("writer never conflicted with the prepared window (legal, just unlikely)")
	}
}

// TestLastCommitReportsCommittedPosition: after a transaction returns,
// LastCommit is the position its effects belong to — an ordinary commit's
// write version, a read-only commit's snapshot, a finalized prepared
// transaction's WriteVersion — and only the committed attempt's: an
// aborted attempt leaves no position behind, and a dropped prepared
// transaction reports none.
func TestLastCommitReportsCommittedPosition(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	expect := func(what string, want uint64) {
		t.Helper()
		if got := th.LastCommit(); got != want || want == 0 {
			t.Fatalf("%s: LastCommit %d, want %d (non-zero)", what, got, want)
		}
	}

	th.Atomic(func(tx *Tx) { tx.Write(&w, 1) })
	expect("ordinary commit", metaVersion(w.meta.Load()))

	var snap uint64
	th.Atomic(func(tx *Tx) {
		tx.Read(&w)
		snap = tx.Snapshot()
	})
	expect("read-only commit", snap)

	attempts := 0
	th.Atomic(func(tx *Tx) {
		if th.LastCommit() != 0 {
			t.Errorf("attempt %d sees position %d inside the transaction, want 0", attempts+1, th.LastCommit())
		}
		tx.Write(&w, 2)
		if attempts++; attempts < 3 {
			tx.Restart()
		}
	})
	expect("commit after two aborted attempts", metaVersion(w.meta.Load()))

	p, _ := th.Prepare(func(tx *Tx) { tx.Write(&w, 3) })
	if th.LastCommit() != 0 {
		t.Fatalf("prepared transaction reports position %d before Finalize", th.LastCommit())
	}
	wv := p.WriteVersion()
	p.Finalize()
	expect("Finalize", wv)

	p2, _ := th.Prepare(func(tx *Tx) { tx.Write(&w, 4) })
	p2.Drop()
	if th.LastCommit() != 0 {
		t.Fatalf("dropped prepared transaction reports position %d", th.LastCommit())
	}
}

// TestPrepareNested: starting any transaction while one is prepared on the
// same thread must panic (the descriptor is still in use).
func TestPrepareNested(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	p, _ := th.Prepare(func(tx *Tx) { tx.Write(&w, 1) })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Atomic during a prepared window did not panic")
			}
		}()
		th.Atomic(func(tx *Tx) {})
	}()
	p.Finalize()
}

// TestPreparedAnchorsClockPosition is the regression test for the
// prepared-transaction / wv==rv+1 write skew: a prepared transaction must
// draw its clock position at the lock point, or a concurrent ordinary
// commit can draw wv == rv+1, skip validation, and copy a value the
// prepared transaction holds locked for imminent overwrite — losing the
// prepared write (this is exactly the optimized tree's copy-on-rotate
// racing a cross-shard transfer, distilled).
//
// Shape: T reads rem and writes val (the transfer); R reads val and writes
// rem (the rotation, copying val elsewhere). R's read of val happens
// before T prepares; T prepares (locks val) before R commits. Exactly one
// of them must lose: with the fix, T's prepare-time clock draw forces R
// out of the shortcut, R validates, sees T's lock and retries after T
// finalizes — so R's copy carries T's value.
func TestPreparedAnchorsClockPosition(t *testing.T) {
	s := New()
	thT := s.NewThread()
	thR := s.NewThread()
	var val, rem Word
	thR.Atomic(func(tx *Tx) { tx.Write(&val, 11) }) // seed

	var p *Prepared
	attempts := 0
	var copied uint64
	thR.Atomic(func(tx *Tx) {
		attempts++
		if attempts > 1 && p != nil {
			// Retrying after the conflict: let T finalize so val unlocks.
			p.Finalize()
			p = nil
		}
		copied = tx.Read(&val) // the rotation's copy of the value
		if attempts == 1 {
			// Between R's read and R's commit, T prepares its overwrite
			// of val (validating its own read of rem first).
			var ok bool
			p, ok = thT.Prepare(func(txT *Tx) {
				if txT.Read(&rem) != 0 {
					txT.Restart()
				}
				txT.Write(&val, 26)
			})
			if !ok {
				t.Fatal("T's Prepare aborted")
			}
		}
		tx.Write(&rem, 1) // the rotation unlinks the original
	})
	if p != nil {
		p.Finalize()
	}
	if attempts < 2 {
		t.Fatalf("R committed in %d attempt(s): it took the no-validation shortcut over T's prepared lock", attempts)
	}
	if copied != 26 {
		t.Fatalf("R copied %d, want T's committed 26 (prepared write lost)", copied)
	}
}

// TestPrepareReadOnly: a read-only prepare validates and finalizes as a
// plain read-only commit.
func TestPrepareReadOnly(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	th.Atomic(func(tx *Tx) { tx.Write(&w, 3) })

	p, ok := th.Prepare(func(tx *Tx) {
		if tx.Read(&w) != 3 {
			t.Error("read wrong value")
		}
	})
	if !ok {
		t.Fatal("read-only Prepare aborted")
	}
	p.Finalize()
	if st := th.Stats(); st.Commits != 2 {
		t.Fatalf("commits %d, want 2", st.Commits)
	}
}
