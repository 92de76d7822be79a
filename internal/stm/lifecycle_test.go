package stm

import (
	"sync"
	"testing"
)

// pauseName names the STM's one abort→retry pause, TinySTM's suicide
// contention manager; the tests below run their cases under it.
const pauseName = "suicide"

// restartTimes runs one Atomic operation that explicitly restarts itself n
// times before committing, returning the thread's stats delta.
func restartTimes(t *testing.T, n int) Stats {
	t.Helper()
	s := New()
	th := s.NewThread()
	attempts := 0
	th.Atomic(func(tx *Tx) {
		attempts++
		if attempts <= n {
			tx.Restart()
		}
	})
	return th.Stats()
}

// TestLifecycleCountsRetries: every abort charges one abort and one retry,
// the operation commits once, and the pause between attempts is charged to
// BackoffNanos.
func TestLifecycleCountsRetries(t *testing.T) {
	t.Run(pauseName, func(t *testing.T) {
		st := restartTimes(t, 3)
		if st.Commits != 1 {
			t.Fatalf("commits = %d", st.Commits)
		}
		if st.Aborts != 3 || st.Retries != 3 {
			t.Fatalf("aborts = %d, retries = %d, want 3,3", st.Aborts, st.Retries)
		}
		if st.BackoffNanos == 0 {
			t.Fatal("three paused retries charged no pause time")
		}
	})
}

func TestSuicideMatchesLegacyStatsSemantics(t *testing.T) {
	// The suicide pause is the pre-forest engine's retry: a retry charges
	// exactly one abort and one retry, and the operation commits exactly
	// once. The pause's spin and yield are timed into BackoffNanos.
	st := restartTimes(t, 5)
	if st.BackoffNanos == 0 {
		t.Fatal("suicide pause recorded no time")
	}
	if st.Retries != st.Aborts || st.Commits != 1 {
		t.Fatalf("retries %d, aborts %d, commits %d; want retries == aborts, one commit",
			st.Retries, st.Aborts, st.Commits)
	}
}

// TestBackoffRecordsStallTime: the pause is timed on the abort path only —
// an operation that commits at its first attempt charges no stall time, one
// that retries does.
func TestBackoffRecordsStallTime(t *testing.T) {
	if st := restartTimes(t, 0); st.BackoffNanos != 0 || st.Retries != 0 {
		t.Fatalf("first-attempt commit: retries %d, stall %d ns; want 0, 0",
			st.Retries, st.BackoffNanos)
	}
	if st := restartTimes(t, 12); st.BackoffNanos == 0 {
		t.Fatal("pause never recorded stall time over 12 retries")
	}
}

// TestContendedCounterAllPolicies hammers one word from several goroutines
// with yield injection, so attempts overlap even on one core: no increment
// may be lost, every conflict must eventually resolve, and a domain that
// retried must have charged its pauses.
func TestContendedCounterAllPolicies(t *testing.T) {
	const goroutines, perG = 4, 200
	t.Run(pauseName, func(t *testing.T) {
		s := New(WithYield(2))
		w := new(Word)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			th := s.NewThread()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					th.Atomic(func(tx *Tx) {
						tx.Write(w, tx.Read(w)+1)
					})
				}
			}()
		}
		wg.Wait()
		final := s.NewThread()
		var got uint64
		final.Atomic(func(tx *Tx) { got = tx.Read(w) })
		if got != goroutines*perG {
			t.Fatalf("counter = %d, want %d", got, goroutines*perG)
		}
		st := s.TotalStats()
		if st.Commits < goroutines*perG {
			t.Fatalf("commits = %d", st.Commits)
		}
		if st.Retries > 0 && st.BackoffNanos == 0 {
			t.Fatalf("%d retries charged no pause time", st.Retries)
		}
	})
}
