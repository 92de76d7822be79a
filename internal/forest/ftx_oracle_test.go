package forest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ftx"
	"repro/internal/trees"
)

// TestFtxRandomizedOracle is the randomized cross-shard oracle: N
// goroutines run a mix of single-key operations and multi-key ftx
// transfers against every tree kind at shards {1, 8}, checked against a
// single-mutex model map. Run under -race (the Makefile's race target
// covers this package).
//
// The workload splits the key space in two:
//
//   - Account keys, shared by all workers, are only ever touched by
//     transfers (and reads): each transfer atomically moves a random
//     amount between two accounts, so the final balances must sum to the
//     seeded total — any torn or partially applied cross-shard commit
//     breaks conservation.
//   - Churn keys are partitioned per worker: each worker inserts, deletes
//     and updates only its own, mirroring every committed effect into the
//     shared model under its mutex. Per-key single-writership makes the
//     model's final state exact, so the tree must match it key for key.
//
// One churn transaction is the shape that makes an RB or AVL commit order
// matter: Get a, Delete b, Put a, where a is b's in-order successor in
// their shard's tree. Nothing but the worker's own keys lies between two
// of its churn keys, so the next present one after b in b's shard is that
// successor; whenever b has two children, the delete copies a's key and
// value into b's node and unlinks a's, and the Put must still land.
func TestFtxRandomizedOracle(t *testing.T) {
	const (
		workers     = 4
		iterations  = 300
		nAccounts   = 24
		initBalance = 1000
		churnSpan   = 64 // churn keys per worker
	)
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				f := New(kind, WithShards(shards), WithYield(2))
				defer f.Close()

				seed := f.NewHandle()
				for a := uint64(0); a < nAccounts; a++ {
					seed.Insert(a, initBalance)
				}

				// model holds the expected final state of the churn keys.
				var modelMu sync.Mutex
				model := make(map[uint64]uint64)

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						h := f.NewHandle()
						rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
						churnBase := uint64(100000 + w*churnSpan)
						for i := 0; i < iterations; i++ {
							switch rng.Intn(5) {
							case 0: // multi-key ftx transfer between two accounts
								a := uint64(rng.Intn(nAccounts))
								b := uint64(rng.Intn(nAccounts))
								if a == b {
									continue
								}
								amt := uint64(rng.Intn(10) + 1)
								err := h.Atomic(func(tx *ftx.Tx) error {
									av, okA := tx.Get(a)
									bv, okB := tx.Get(b)
									if !okA || !okB {
										t.Errorf("account %d or %d missing mid-run", a, b)
										return nil
									}
									if av < amt {
										return nil // insufficient funds: no-op
									}
									tx.Put(a, av-amt)
									tx.Put(b, bv+amt)
									return nil
								})
								if err != nil {
									t.Errorf("Atomic: %v", err)
								}
							case 1: // churn insert/update (worker-owned key)
								k := churnBase + uint64(rng.Intn(churnSpan))
								v := uint64(rng.Intn(1000))
								h.Delete(k)
								h.Insert(k, v)
								modelMu.Lock()
								model[k] = v
								modelMu.Unlock()
							case 2: // churn delete (worker-owned key)
								k := churnBase + uint64(rng.Intn(churnSpan))
								h.Delete(k)
								modelMu.Lock()
								delete(model, k)
								modelMu.Unlock()
							case 3: // Get a, Delete b, Put a: a is b's successor
								b := churnBase + uint64(rng.Intn(churnSpan))
								a, ok := uint64(0), false
								modelMu.Lock()
								_, present := model[b]
								for k := b + 1; present && k < churnBase+churnSpan; k++ {
									if _, in := model[k]; in && f.ShardOf(k) == f.ShardOf(b) {
										a, ok = k, true
										break
									}
								}
								modelMu.Unlock()
								if !ok {
									continue
								}
								var av uint64
								err := h.Atomic(func(tx *ftx.Tx) error {
									v, okA := tx.Get(a)
									if !okA || !tx.Delete(b) {
										t.Errorf("churn key %d or %d missing", a, b)
										return nil
									}
									av = v + 1
									tx.Put(a, av)
									return nil
								})
								if err != nil {
									t.Errorf("Atomic: %v", err)
								}
								modelMu.Lock()
								delete(model, b)
								model[a] = av
								modelMu.Unlock()
							default: // reads of anything
								if rng.Intn(2) == 0 {
									h.Contains(uint64(rng.Intn(nAccounts)))
								} else {
									h.Get(churnBase + uint64(rng.Intn(churnSpan)))
								}
							}
						}
					}(w)
				}
				wg.Wait()

				check := f.NewHandle()
				// Sum conservation over the accounts.
				var sum uint64
				for a := uint64(0); a < nAccounts; a++ {
					v, ok := check.Get(a)
					if !ok {
						t.Fatalf("account %d vanished", a)
					}
					sum += v
				}
				if want := uint64(nAccounts * initBalance); sum != want {
					t.Fatalf("account sum %d, want %d: a transfer committed partially", sum, want)
				}
				// Churn keys must match the model exactly.
				for w := 0; w < workers; w++ {
					churnBase := uint64(100000 + w*churnSpan)
					for k := churnBase; k < churnBase+churnSpan; k++ {
						v, ok := check.Get(k)
						mv, mok := model[k]
						if ok != mok || (ok && v != mv) {
							t.Fatalf("churn key %d: tree %d,%t model %d,%t", k, v, ok, mv, mok)
						}
					}
				}
			})
		}
	}
}
