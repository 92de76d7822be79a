package stm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestModeString(t *testing.T) {
	cases := map[Mode]string{CTL: "CTL", ETL: "ETL", Elastic: "Elastic", Mode(9): "Mode(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestReadWriteSingleThread(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(WithMode(mode))
			th := s.NewThread()
			var w Word
			th.Atomic(func(tx *Tx) {
				if v := tx.Read(&w); v != 0 {
					t.Fatalf("zero Word read %d, want 0", v)
				}
				tx.Write(&w, 42)
				if v := tx.Read(&w); v != 42 {
					t.Fatalf("read-own-write got %d, want 42", v)
				}
			})
			th.Atomic(func(tx *Tx) {
				if v := tx.Read(&w); v != 42 {
					t.Fatalf("committed value %d, want 42", v)
				}
			})
		})
	}
}

func TestWriteOverwriteSameWord(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		s := New(WithMode(mode))
		th := s.NewThread()
		var w Word
		th.Atomic(func(tx *Tx) {
			tx.Write(&w, 1)
			tx.Write(&w, 2)
			tx.Write(&w, 3)
		})
		th.Atomic(func(tx *Tx) {
			if v := tx.Read(&w); v != 3 {
				t.Fatalf("[%v] got %d, want 3", mode, v)
			}
		})
	}
}

func TestPlainAndSetPlain(t *testing.T) {
	var w Word
	w.SetPlain(7)
	if w.Plain() != 7 {
		t.Fatalf("Plain=%d, want 7", w.Plain())
	}
	s := New()
	th := s.NewThread()
	th.Atomic(func(tx *Tx) {
		if v := tx.Read(&w); v != 7 {
			t.Fatalf("transactional read of SetPlain value = %d, want 7", v)
		}
		tx.Write(&w, 8)
	})
	if w.Plain() != 8 {
		t.Fatalf("Plain after commit = %d, want 8", w.Plain())
	}
}

func TestURead(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	th.Atomic(func(tx *Tx) { tx.Write(&w, 5) })
	th.Atomic(func(tx *Tx) {
		if v := tx.URead(&w); v != 5 {
			t.Fatalf("URead=%d, want 5", v)
		}
		tx.Write(&w, 6)
		if v := tx.URead(&w); v != 6 {
			t.Fatalf("URead after own write=%d, want 6", v)
		}
	})
	st := th.Stats()
	if st.UReads != 2 {
		t.Fatalf("UReads=%d, want 2", st.UReads)
	}
}

func TestRestartRetries(t *testing.T) {
	s := New()
	th := s.NewThread()
	var w Word
	attempts := 0
	th.Atomic(func(tx *Tx) {
		attempts++
		tx.Write(&w, uint64(attempts))
		if attempts < 3 {
			tx.Restart()
		}
	})
	if attempts != 3 {
		t.Fatalf("attempts=%d, want 3", attempts)
	}
	th.Atomic(func(tx *Tx) {
		if v := tx.Read(&w); v != 3 {
			t.Fatalf("value=%d, want 3 (aborted writes must not be visible)", v)
		}
	})
	if ab := th.Stats().Aborts; ab != 2 {
		t.Fatalf("aborts=%d, want 2", ab)
	}
}

func TestAbortedWritesInvisible(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		s := New(WithMode(mode))
		th := s.NewThread()
		var w Word
		w.SetPlain(100)
		done := false
		th.Atomic(func(tx *Tx) {
			tx.Write(&w, 999)
			if !done {
				done = true
				tx.Restart()
			}
		})
		if v := w.Plain(); v != 999 {
			t.Fatalf("[%v] final=%d, want 999", mode, v)
		}
		// The abort must have restored the version so a reader sees a
		// consistent unlocked word in between.
		if got := metaVersion(w.meta.Load()); got == 0 && s.Now() == 0 {
			t.Fatalf("[%v] clock never advanced", mode)
		}
	}
}

func TestNestedAtomicPanics(t *testing.T) {
	s := New()
	th := s.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Atomic did not panic")
		}
	}()
	th.Atomic(func(tx *Tx) {
		th.Atomic(func(tx2 *Tx) {})
	})
}

func TestForeignPanicPropagatesAndUnlocks(t *testing.T) {
	s := New(WithMode(ETL))
	th := s.NewThread()
	var w Word
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		th.Atomic(func(tx *Tx) {
			tx.Write(&w, 1) // acquires the lock eagerly
			panic("boom")
		})
	}()
	if isLocked(w.meta.Load()) {
		t.Fatal("word left locked after foreign panic")
	}
	// And the word is still usable.
	th2 := s.NewThread()
	th2.Atomic(func(tx *Tx) { tx.Write(&w, 2) })
	if w.Plain() != 2 {
		t.Fatalf("got %d, want 2", w.Plain())
	}
	// And so is the panicking thread: the operation is closed (pending
	// lowered for the §3.4 limbos, one operation counted), also after a
	// panic out of a read-only one, which must not leave it read-only.
	if th.Pending() || th.OpCount() != 1 {
		t.Fatalf("after the panic: pending %t, %d ops completed, want false, 1", th.Pending(), th.OpCount())
	}
	func() {
		defer func() { recover() }()
		th.AtomicRO(func(tx *Tx) { tx.Read(&w); panic("boom") })
	}()
	th.Atomic(func(tx *Tx) { tx.Write(&w, 3) })
	if w.Plain() != 3 || th.Pending() || th.OpCount() != 3 {
		t.Fatalf("got %d, pending %t, %d ops completed; want 3, false, 3", w.Plain(), th.Pending(), th.OpCount())
	}
}

func TestIsolationTwoThreadsSequential(t *testing.T) {
	s := New()
	a, b := s.NewThread(), s.NewThread()
	var w Word
	a.Atomic(func(tx *Tx) { tx.Write(&w, 1) })
	b.Atomic(func(tx *Tx) {
		if v := tx.Read(&w); v != 1 {
			t.Fatalf("b sees %d, want 1", v)
		}
		tx.Write(&w, 2)
	})
	a.Atomic(func(tx *Tx) {
		if v := tx.Read(&w); v != 2 {
			t.Fatalf("a sees %d, want 2", v)
		}
	})
}

// TestCounterConcurrent increments a shared counter from many goroutines;
// the final value must equal the number of increments (no lost updates) in
// every mode.
func TestCounterConcurrent(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(WithMode(mode))
			const goroutines = 8
			const perG = 500
			var w Word
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						th.Atomic(func(tx *Tx) {
							tx.Write(&w, tx.Read(&w)+1)
						})
					}
				}()
			}
			wg.Wait()
			if got := w.Plain(); got != goroutines*perG {
				t.Fatalf("counter=%d, want %d", got, goroutines*perG)
			}
		})
	}
}

// TestCommitFastPathWriteSkew stresses the interaction between the
// validation-skip fast path and a slow-path committer with a stale snapshot.
// The shape is the classic write-skew pair — T2 reads b and writes a, T1
// reads a and writes b — arranged so that T2 commits on the slow path (its
// snapshot is stale: the clock is bumped after it begins) with a large read
// set (long validation) and a large write set locked before a, while T1 is a
// small transaction with a fresh snapshot, eligible for the wv == rv+1
// CAS shortcut. Serializability forbids both guarded writes landing: the
// second transaction to serialize must observe the first's write (or its
// lock) and back off. If the slow path validated its reads BEFORE advancing
// the clock, T1 could win its CAS inside T2's validation window and skip
// validation without ever observing T2's lock on a — both publish at the
// same position with mutually stale reads, and a and b end up 1 together.
//
// The racing window lies inside commit(), which has no scheduling points,
// so hitting it requires the two committers to run truly in parallel: on
// GOMAXPROCS=1 the test still checks the invariant but cannot exercise the
// race. The orchestration (begin/bump sequencing, lock-phase polling,
// jittered start) exists to steer multi-core runs into the window.
func TestCommitFastPathWriteSkew(t *testing.T) {
	s := New() // CTL: commit-time locking maximizes the racing window
	thReset := s.NewThread()
	th1 := s.NewThread()
	th2 := s.NewThread()
	const fillerN = 2048 // T2 read set: stretches commit-time validation
	const lockedN = 512  // T2 write set: locked before a at commit
	const t1WorkN = 512  // T1 reads between its read of a and its commit
	filler := make([]Word, fillerN)
	locked := make([]Word, lockedN)
	t1Work := make([]Word, t1WorkN)
	var a, b, bump Word
	var t2Began atomic.Bool
	rounds := 4000
	if testing.Short() {
		rounds = 400
	}
	x := uint64(1)
	for r := 0; r < rounds; r++ {
		thReset.Atomic(func(tx *Tx) {
			tx.Write(&a, 0)
			tx.Write(&b, 0)
		})
		t2Began.Store(false)
		done := make(chan struct{})
		go func() {
			defer close(done)
			th2.Atomic(func(tx *Tx) {
				t2Began.Store(true)  // attempt begun: snapshot drawn
				guard := tx.Read(&b) // validated first at commit
				var sink uint64
				for i := range filler {
					sink += tx.Read(&filler[i])
				}
				for i := range locked {
					tx.Write(&locked[i], sink)
				}
				if guard == 0 {
					tx.Write(&a, 1) // locked last, just before the clock draw
				}
			})
		}()
		// Stale-snapshot setup: wait until T2 has drawn its snapshot, then
		// advance the clock on a word T2 never reads. T2's commit now cannot
		// take the fast path, while T1 (beginning after the bump) can.
		for !t2Began.Load() {
			runtime.Gosched()
		}
		thReset.Atomic(func(tx *Tx) {
			tx.Write(&bump, uint64(r))
		})
		// Launch T1 the moment T2 enters its commit lock phase (first write
		// lock observed), with a little jitter so T1's read of a and its
		// commit slide across T2's lock-of-a and validation phases. The spin
		// bound keeps the poll from monopolizing a single-CPU scheduler.
	waitLockPhase:
		for spins := 0; !isLocked(locked[0].meta.Load()); spins++ {
			select {
			case <-done: // T2 already finished this round; no race to catch
				break waitLockPhase
			default:
			}
			if spins > 1<<14 {
				spins = 0
				runtime.Gosched()
			}
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for spin := x % 2048; spin > 0; spin-- {
			_ = spin
		}
		th1.Atomic(func(tx *Tx) {
			guard := tx.Read(&a)
			var sink uint64
			for i := range t1Work {
				sink += tx.Read(&t1Work[i])
			}
			_ = sink
			if guard == 0 {
				tx.Write(&b, 1)
			}
		})
		<-done
		if av, bv := a.Plain(), b.Plain(); av == 1 && bv == 1 {
			t.Fatalf("round %d: write skew: a=%d b=%d (both guarded writes committed)", r, av, bv)
		}
	}
}

// TestBankTransferInvariant moves money between accounts concurrently; the
// total must be conserved at every observation point and at the end.
func TestBankTransferInvariant(t *testing.T) {
	for _, mode := range []Mode{CTL, ETL, Elastic} {
		t.Run(mode.String(), func(t *testing.T) {
			s := New(WithMode(mode))
			const nAcc = 16
			const total = nAcc * 100
			accounts := make([]Word, nAcc)
			for i := range accounts {
				accounts[i].SetPlain(100)
			}
			var transfers sync.WaitGroup
			stop := make(chan struct{})
			observerDone := make(chan struct{})
			// Observer goroutine: every transactional snapshot must sum to
			// the conserved total while transfers race. The observer pins
			// CTL whatever the mode under test (as forest Range does): a
			// read-only elastic transaction cuts all but its last reads by
			// design, so its 16-word sum is no snapshot and may be off by an
			// in-flight transfer. It alternates the fully logged CTL
			// transaction with AtomicRO, whose first attempt logs nothing:
			// both must see a snapshot. The transfers run in the mode under
			// test; what is asserted is that they never publish a broken
			// total.
			obs := s.NewThread()
			go func() {
				defer close(observerDone)
				var sum uint64
				sumAll := func(tx *Tx) {
					sum = 0
					for i := range accounts {
						sum += tx.Read(&accounts[i])
					}
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%2 == 0 {
						obs.AtomicRO(sumAll)
					} else {
						obs.AtomicMode(CTL, sumAll)
					}
					if sum != total {
						t.Errorf("observer saw total %d, want %d (unlogged first: %v)", sum, total, i%2 == 0)
						return
					}
				}
			}()
			for g := 0; g < 4; g++ {
				th := s.NewThread()
				transfers.Add(1)
				go func(seed uint64) {
					defer transfers.Done()
					x := seed*2654435761 + 1
					for i := 0; i < 400; i++ {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						from := int(x % nAcc)
						to := int((x >> 8) % nAcc)
						if from == to {
							continue
						}
						th.Atomic(func(tx *Tx) {
							f := tx.Read(&accounts[from])
							if f == 0 {
								return
							}
							tx.Write(&accounts[from], f-1)
							tx.Write(&accounts[to], tx.Read(&accounts[to])+1)
						})
					}
				}(uint64(g + 1))
			}
			transfers.Wait()
			close(stop)
			<-observerDone
			var sum uint64
			for i := range accounts {
				sum += accounts[i].Plain()
			}
			if sum != total {
				t.Fatalf("final total=%d, want %d", sum, total)
			}
		})
	}
}

func TestStatsCounting(t *testing.T) {
	s := New()
	th := s.NewThread()
	var a, b Word
	th.Atomic(func(tx *Tx) {
		tx.Read(&a)
		tx.Read(&b)
		tx.Write(&a, 1)
	})
	st := th.Stats()
	if st.Commits != 1 || st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("stats=%+v, want 1 commit, 2 reads, 1 write", st)
	}
	if st.MaxOpReads != 2 {
		t.Fatalf("MaxOpReads=%d, want 2", st.MaxOpReads)
	}
	th.noteSpinExhausted()
	th.ResetStats()
	if th.Stats().Commits != 0 {
		t.Fatal("ResetStats did not clear counters")
	}
	if ls := th.liveStats(); ls != (LiveStats{}) {
		t.Fatalf("ResetStats left live counters %+v", ls)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Commits: 1, Aborts: 2, Reads: 3, UReads: 4, Writes: 5, MaxOpReads: 6, Extensions: 7, ElasticCuts: 8}
	b := Stats{Commits: 10, MaxOpReads: 3}
	a.Add(b)
	if a.Commits != 11 || a.MaxOpReads != 6 {
		t.Fatalf("Add wrong: %+v", a)
	}
	b2 := Stats{MaxOpReads: 9}
	a.Add(b2)
	if a.MaxOpReads != 9 {
		t.Fatalf("MaxOpReads should take max, got %d", a.MaxOpReads)
	}
}

func TestAbortRate(t *testing.T) {
	s := Stats{}
	if s.AbortRate() != 0 {
		t.Fatal("empty stats abort rate should be 0")
	}
	s = Stats{Commits: 3, Aborts: 1}
	if got := s.AbortRate(); got != 0.25 {
		t.Fatalf("AbortRate=%v, want 0.25", got)
	}
}

func TestOpCountAndPending(t *testing.T) {
	s := New()
	th := s.NewThread()
	if th.Pending() {
		t.Fatal("fresh thread pending")
	}
	var w Word
	sawPending := false
	th.Atomic(func(tx *Tx) {
		sawPending = th.Pending()
		tx.Write(&w, 1)
	})
	if !sawPending {
		t.Fatal("pending flag not raised inside Atomic")
	}
	if th.Pending() {
		t.Fatal("pending flag not cleared after Atomic")
	}
	if th.OpCount() != 1 {
		t.Fatalf("OpCount=%d, want 1", th.OpCount())
	}
}

func TestTotalStats(t *testing.T) {
	s := New()
	a, b := s.NewThread(), s.NewThread()
	var w Word
	a.Atomic(func(tx *Tx) { tx.Write(&w, 1) })
	b.Atomic(func(tx *Tx) { tx.Read(&w) })
	tot := s.TotalStats()
	if tot.Commits != 2 {
		t.Fatalf("TotalStats.Commits=%d, want 2", tot.Commits)
	}
	if len(s.Threads()) != 2 {
		t.Fatalf("Threads()=%d, want 2", len(s.Threads()))
	}
}

func TestThreadSlotsDistinct(t *testing.T) {
	s := New()
	a, b := s.NewThread(), s.NewThread()
	if a.Slot() == b.Slot() || a.Slot() == 0 || b.Slot() == 0 {
		t.Fatalf("slots must be distinct and nonzero: %d %d", a.Slot(), b.Slot())
	}
	if a.STM() != s {
		t.Fatal("Thread.STM() mismatch")
	}
}

func TestYieldInjectionGeneratesInterleaving(t *testing.T) {
	// With yield injection, transactions on a single processor interleave
	// and genuinely conflict; the counter invariant must still hold.
	s := New(WithMode(CTL), WithYield(2))
	var w Word
	var wg sync.WaitGroup
	const goroutines, perG = 6, 300
	for g := 0; g < goroutines; g++ {
		th := s.NewThread()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				th.Atomic(func(tx *Tx) { tx.Write(&w, tx.Read(&w)+1) })
			}
		}()
	}
	wg.Wait()
	if got := w.Plain(); got != goroutines*perG {
		t.Fatalf("counter=%d, want %d", got, goroutines*perG)
	}
	if s.TotalStats().Aborts == 0 {
		t.Log("note: no aborts even with yield injection (acceptable but unexpected)")
	}
}
