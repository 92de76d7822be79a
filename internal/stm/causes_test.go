package stm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAbortCausesSumToAborts hammers a small hot word array from several
// threads in every mode — writers, and one reader summing the array under
// AtomicRO, whose lost unlogged attempts are a cause of their own — and
// asserts the taxonomy invariant: every abort site charges exactly one
// cause, so the per-cause counters sum to Aborts on every thread and in
// every aggregate.
func TestAbortCausesSumToAborts(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(WithMode(mode))
			const nWords = 4
			const goroutines = 4
			const txPerG = 2000
			words := make([]Word, nWords)
			var wg, reader sync.WaitGroup
			var stop atomic.Bool
			reader.Add(1)
			go func() {
				defer reader.Done()
				th := s.NewThread()
				sumAll := func(tx *Tx) {
					for i := range words {
						tx.Read(&words[i])
					}
				}
				for !stop.Load() {
					th.AtomicRO(sumAll)
				}
			}()
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					th := s.NewThread()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < txPerG; i++ {
						a, b := rng.Intn(nWords), rng.Intn(nWords)
						restarted := false
						th.Atomic(func(tx *Tx) {
							v := tx.Read(&words[a])
							if i%97 == 0 && !restarted {
								// Exercise the explicit-restart cause too.
								restarted = true
								tx.Restart()
							}
							tx.Write(&words[b], v+1)
						})
					}
				}(int64(g) * 7919)
			}
			wg.Wait()
			stop.Store(true)
			reader.Wait()

			total := s.TotalStats()
			t.Logf("aborts by cause: %v", total.AbortCauses)
			if total.Aborts == 0 {
				t.Log("no aborts this run; invariant holds trivially")
			}
			if got := total.AbortCauseSum(); got != total.Aborts {
				t.Fatalf("aggregate cause sum %d != aborts %d (causes %v)",
					got, total.Aborts, total.AbortCauses)
			}
			for i, th := range s.Threads() {
				st := th.Stats()
				if got := st.AbortCauseSum(); got != st.Aborts {
					t.Fatalf("thread %d: cause sum %d != aborts %d (causes %v)",
						i, got, st.Aborts, st.AbortCauses)
				}
			}
			// The explicit restarts must have been classified.
			if total.AbortCauses[AbortExplicit] == 0 {
				t.Error("no explicit aborts recorded despite Restart calls")
			}
		})
	}
}

// TestAbortCauseLabels: every cause has a metric label of its own (the
// registry's stm_abort_cause_total series are keyed by it).
func TestAbortCauseLabels(t *testing.T) {
	seen := map[string]AbortCause{}
	for c := AbortCause(0); c < NumAbortCauses; c++ {
		l := c.String()
		if prev, dup := seen[l]; dup || l == "unknown" {
			t.Errorf("cause %d is labelled %q (cause %d has that label: %v)", c, l, prev, dup)
		}
		seen[l] = c
	}
	if AbortUnlogged.String() != "unlogged" {
		t.Errorf("AbortUnlogged is labelled %q, want \"unlogged\"", AbortUnlogged.String())
	}
}

// TestLiveStatsMatchesStats checks the scrape path: after the owners
// quiesce, the seqlock-published live mirrors agree with the plain
// per-thread counters, including the cause breakdown.
func TestLiveStatsMatchesStats(t *testing.T) {
	s := New(WithMode(CTL))
	var w Word
	const goroutines = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := s.NewThread()
			for i := 0; i < 3000; i++ {
				th.Atomic(func(tx *Tx) {
					tx.Write(&w, tx.Read(&w)+1)
				})
			}
		}()
	}
	wg.Wait()

	total := s.TotalStats()
	live := s.LiveStats()
	if live.Commits != total.Commits {
		t.Errorf("live commits %d != stats commits %d", live.Commits, total.Commits)
	}
	if live.Aborts != total.Aborts {
		t.Errorf("live aborts %d != stats aborts %d", live.Aborts, total.Aborts)
	}
	if live.Retries != total.Retries {
		t.Errorf("live retries %d != stats retries %d", live.Retries, total.Retries)
	}
	if live.AbortCauses != total.AbortCauses {
		t.Errorf("live causes %v != stats causes %v", live.AbortCauses, total.AbortCauses)
	}
	var sum uint64
	for _, c := range live.AbortCauses {
		sum += c
	}
	if sum != live.Aborts {
		t.Errorf("live cause sum %d != live aborts %d", sum, live.Aborts)
	}
}

// TestStructuralSplit verifies that a thread marked structural charges the
// structural counters and an unmarked one does not.
func TestStructuralSplit(t *testing.T) {
	s := New(WithMode(CTL))
	var w Word
	maint := s.NewThread()
	maint.MarkStructural()
	app := s.NewThread()

	maint.Atomic(func(tx *Tx) { tx.Write(&w, 1) })
	app.Atomic(func(tx *Tx) { tx.Write(&w, 2) })

	ms, as := maint.Stats(), app.Stats()
	if ms.StructuralCommits != 1 || ms.Commits != 1 {
		t.Errorf("structural thread: commits %d structural %d, want 1/1", ms.Commits, ms.StructuralCommits)
	}
	if as.StructuralCommits != 0 || as.Commits != 1 {
		t.Errorf("app thread: commits %d structural %d, want 1/0", as.Commits, as.StructuralCommits)
	}
	total := s.TotalStats()
	if total.StructuralCommits != 1 {
		t.Errorf("aggregate structural commits %d, want 1", total.StructuralCommits)
	}
	live := s.LiveStats()
	if live.StructuralCommits != 1 {
		t.Errorf("live structural commits %d, want 1", live.StructuralCommits)
	}
}
