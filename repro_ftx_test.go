package repro_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro"
)

// TestAtomicTransferFacade exercises Handle.Atomic end to end on both the
// unsharded and the sharded configuration: transfer semantics, user
// aborts, and the coordinator statistics.
func TestAtomicTransferFacade(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := repro.NewTree(repro.SpeculationFriendlyOptimized, repro.WithShards(shards))
			defer tr.Close()
			h := tr.NewHandle()
			h.Insert(1, 70)
			h.Insert(2, 30)

			if err := h.Atomic(func(t *repro.Txn) error {
				a, _ := t.Get(1)
				b, _ := t.Get(2)
				t.Put(1, a-25)
				t.Put(2, b+25)
				return nil
			}); err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			if v, _ := h.Get(1); v != 45 {
				t.Fatalf("key 1 = %d, want 45", v)
			}
			if v, _ := h.Get(2); v != 55 {
				t.Fatalf("key 2 = %d, want 55", v)
			}

			boom := errors.New("insufficient funds")
			err := h.Atomic(func(t *repro.Txn) error {
				v, _ := t.Get(1)
				if v < 100 {
					return boom
				}
				t.Put(1, v-100)
				return nil
			})
			if err != boom {
				t.Fatalf("err = %v, want the fn error", err)
			}
			if v, _ := h.Get(1); v != 45 {
				t.Fatalf("key 1 = %d after abort, want unchanged 45", v)
			}

			st := h.XactStats()
			if st.Commits != 1 || st.UserAborts != 1 {
				t.Fatalf("stats %+v: want 1 commit, 1 user abort", st)
			}
		})
	}
}

// TestAtomicSumConservationFacade is a short facade-level conservation
// check: concurrent transfers through Handle.Atomic must keep the total
// balance invariant at both shard counts.
func TestAtomicSumConservationFacade(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := repro.NewTree(repro.SpeculationFriendly, repro.WithShards(shards))
			defer tr.Close()
			const nAcc, bal = 16, 500
			seed := tr.NewHandle()
			for k := uint64(0); k < nAcc; k++ {
				seed.Insert(k, bal)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := tr.NewHandle()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := 0; i < 200; i++ {
						a, b := uint64(rng.Intn(nAcc)), uint64(rng.Intn(nAcc))
						if a == b {
							continue
						}
						amt := uint64(rng.Intn(5) + 1)
						h.Atomic(func(t *repro.Txn) error {
							av, _ := t.Get(a)
							bv, _ := t.Get(b)
							if av < amt {
								return nil
							}
							t.Put(a, av-amt)
							t.Put(b, bv+amt)
							return nil
						})
					}
				}(w)
			}
			wg.Wait()
			h := tr.NewHandle()
			var sum uint64
			for k := uint64(0); k < nAcc; k++ {
				v, ok := h.Get(k)
				if !ok {
					t.Fatalf("account %d vanished", k)
				}
				sum += v
			}
			if sum != nAcc*bal {
				t.Fatalf("sum %d, want %d", sum, nAcc*bal)
			}
		})
	}
}

// TestAtomicPooledContextFacade pins the two rules the handle's single
// transaction context imposes, on both configurations: a nested Atomic on
// the same handle panics with an ftx message instead of clobbering the outer
// transaction (and leaves the handle usable), and a warmed-up Atomic
// allocates nothing (no WAL, no tracer, maintenance stopped; the body is
// hoisted, a closure literal per call is the caller's own allocation).
func TestAtomicPooledContextFacade(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr := repro.NewTree(repro.SpeculationFriendlyOptimized, repro.WithShards(shards), repro.WithoutMaintenance())
			defer tr.Close()
			h := tr.NewHandle()
			for k := uint64(0); k < 64; k++ {
				h.Insert(k*37%64, 1000)
			}

			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.HasPrefix(msg, "ftx: ") {
						t.Fatalf("nested Atomic: recovered %q, want an ftx: panic", msg)
					}
				}()
				h.Atomic(func(tx *repro.Txn) error {
					tx.Put(1, 0)
					return h.Atomic(func(tx *repro.Txn) error { tx.Get(2); return nil })
				})
			}()
			if v, _ := h.Get(1); v != 1000 {
				t.Fatalf("key 1 = %d: the abandoned outer transaction applied its write", v)
			}

			transfer := func(tx *repro.Txn) error {
				a, _ := tx.Get(1)
				b, _ := tx.Get(2)
				tx.Get(3)
				tx.Get(4)
				tx.Put(1, a-1)
				tx.Put(2, b+1)
				return nil
			}
			op := func() { h.Atomic(transfer) }
			op()
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Fatalf("Atomic allocates %.2f times per run, want 0", avg)
			}
			if a, _ := h.Get(1); a != 1000-202 {
				t.Fatalf("key 1 = %d after 202 transfers, want %d", a, 1000-202)
			}
		})
	}
}
