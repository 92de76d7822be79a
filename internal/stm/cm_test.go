package stm

import (
	"sync"
	"testing"
)

// restartTimes runs one Atomic operation that explicitly restarts itself n
// times before committing, returning the thread's stats delta.
func restartTimes(t *testing.T, cm ContentionManager, n int) Stats {
	t.Helper()
	s := New(WithContentionManager(cm))
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

func TestLifecycleCountsRetries(t *testing.T) {
	for _, name := range Managers() {
		cm, err := ManagerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			st := restartTimes(t, cm, 3)
			if st.Commits != 1 {
				t.Fatalf("commits = %d", st.Commits)
			}
			if st.Aborts != 3 || st.Retries != 3 {
				t.Fatalf("aborts = %d, retries = %d, want 3,3", st.Aborts, st.Retries)
			}
		})
	}
}

func TestSuicideMatchesLegacyStatsSemantics(t *testing.T) {
	// The suicide policy is the pre-forest engine: a retry charges exactly
	// one abort and one retry, stalls no measured time, and commits exactly
	// once per operation.
	st := restartTimes(t, Suicide(), 5)
	if st.BackoffNanos != 0 {
		t.Fatalf("suicide recorded backoff time: %d ns", st.BackoffNanos)
	}
	if st.Retries != st.Aborts {
		t.Fatalf("retries %d != aborts %d", st.Retries, st.Aborts)
	}
}

func TestBackoffRecordsStallTime(t *testing.T) {
	// Enough forced retries that at least one jittered window is non-zero.
	st := restartTimes(t, Backoff(), 12)
	if st.BackoffNanos == 0 {
		t.Fatal("backoff never recorded stall time over 12 retries")
	}
}

func TestManagerByName(t *testing.T) {
	for _, name := range Managers() {
		cm, err := ManagerByName(name)
		if err != nil || cm.Name() != name {
			t.Fatalf("ManagerByName(%q) = %v, %v", name, cm, err)
		}
	}
	if cm, err := ManagerByName(""); err != nil || cm.Name() != "backoff" {
		t.Fatalf("empty name should resolve to the backoff default, got %v, %v", cm, err)
	}
	if _, err := ManagerByName("polite"); err == nil {
		t.Fatal("unknown manager did not error")
	}
}

// TestContendedCounterAllPolicies hammers one word from several goroutines
// under every policy: whatever the retry policy does, no increment may be
// lost and every conflict must eventually resolve.
func TestContendedCounterAllPolicies(t *testing.T) {
	const goroutines, perG = 4, 200
	for _, name := range Managers() {
		cm, _ := ManagerByName(name)
		t.Run(name, func(t *testing.T) {
			s := New(WithContentionManager(cm), WithYield(2))
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
			if st := s.TotalStats(); st.Commits < goroutines*perG {
				t.Fatalf("commits = %d", st.Commits)
			}
		})
	}
}
