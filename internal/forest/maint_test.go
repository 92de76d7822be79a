package forest

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sftree"
	"repro/internal/trees"
)

// sfTreeOf unwraps a shard's map to the underlying speculation-friendly
// tree when the kind has one (the NR wrapper is excluded on purpose: it
// never rebalances, so the maintenance invariants do not apply to it).
func sfTreeOf(m trees.Map) (*sftree.Tree, bool) {
	st, ok := m.(*sftree.Tree)
	return st, ok
}

// TestMaintenanceOracle is the randomized maintenance-invariant oracle of
// the pooled sweep: for every tree kind × shard count {1, 8},
// apply a random operation stream against a model map, quiesce, and check
//
//   - the abstraction matches the model exactly (Keys / Get);
//   - for speculation-friendly shards: structural invariants hold, the
//     tree is height-balanced (slack 1), and no logically deleted node
//     with at most one child survived (only 2-child deleted nodes may);
//   - after deleting every remaining key and quiescing again, zero
//     logically deleted nodes are reachable and the trees are physically
//     empty.
func TestMaintenanceOracle(t *testing.T) {
	const keyRange = 1 << 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // two workers at 8 shards
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(string(kind)+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				f := New(kind, WithShards(shards))
				defer f.Close()
				h := f.NewHandle()
				model := make(map[uint64]uint64)
				rng := rand.New(rand.NewSource(int64(shards)*7919 + int64(len(kind))))

				for i := 0; i < 6000; i++ {
					k := uint64(rng.Intn(keyRange))
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						got := h.Insert(k, k*3)
						want := !has(model, k)
						if got != want {
							t.Fatalf("Insert(%d) = %v, model %v", k, got, want)
						}
						if want {
							model[k] = k * 3
						}
					case 4, 5, 6:
						got := h.Delete(k)
						want := has(model, k)
						if got != want {
							t.Fatalf("Delete(%d) = %v, model %v", k, got, want)
						}
						delete(model, k)
					case 7, 8:
						v, ok := h.Get(k)
						wv, wok := model[k], has(model, k)
						if ok != wok || (ok && v != wv) {
							t.Fatalf("Get(%d) = (%d,%v), model (%d,%v)", k, v, ok, wv, wok)
						}
					default:
						dst := uint64(rng.Intn(keyRange))
						if f.ShardOf(k) == f.ShardOf(dst) {
							ok := h.Move(k, dst)
							want := k == dst && has(model, k) ||
								k != dst && has(model, k) && !has(model, dst)
							if ok != want {
								t.Fatalf("Move(%d,%d) = %v, model %v", k, dst, ok, want)
							}
							if ok && k != dst {
								model[dst] = model[k]
								delete(model, k)
							}
						}
					}
				}
				f.Quiesce(1 << 20)

				// Contents must match the model exactly.
				keys := h.Keys()
				if len(keys) != len(model) {
					t.Fatalf("size %d, model %d", len(keys), len(model))
				}
				for _, k := range keys {
					if !has(model, k) {
						t.Fatalf("key %d present but not in model", k)
					}
					if v, _ := h.Get(k); v != model[k] {
						t.Fatalf("value at %d = %d, model %d", k, v, model[k])
					}
				}
				checkShardInvariants(t, f, false)

				// Delete everything: after quiescing, no logically deleted
				// node may remain reachable anywhere.
				for k := range model {
					if !h.Delete(k) {
						t.Fatalf("final Delete(%d) failed", k)
					}
				}
				f.Quiesce(1 << 20)
				checkShardInvariants(t, f, true)
			})
		}
	}
}

// has reports model membership (values may legitimately be zero).
func has(m map[uint64]uint64, k uint64) bool { _, ok := m[k]; return ok }

// checkShardInvariants asserts the post-Quiesce maintenance invariants on
// every speculation-friendly shard; when empty is true the trees must also
// hold zero logically deleted (and, in fact, zero) reachable nodes.
func checkShardInvariants(t *testing.T, f *Forest, empty bool) {
	t.Helper()
	for si, m := range f.maps {
		st, ok := sfTreeOf(m)
		if !ok {
			continue
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("shard %d: %v", si, err)
		}
		if err := st.CheckBalanced(1); err != nil {
			t.Fatalf("shard %d not balanced post-Quiesce: %v", si, err)
		}
		if st.Stats().Passes == 0 {
			t.Fatalf("shard %d: Quiesce ran no maintenance sweep", si)
		}
		if empty {
			if n := st.DeletedReachable(); n != 0 {
				t.Fatalf("shard %d: %d logically deleted nodes reachable after delete-all Quiesce", si, n)
			}
			if n := st.PhysicalSize(); n != 0 {
				t.Fatalf("shard %d: %d nodes reachable after delete-all Quiesce", si, n)
			}
		}
	}
}

// TestMaintPoolSweepRemoves checks the pool end-to-end: with the pool
// running, committed deletes are physically removed by its sweeps alone,
// and the pool reports its activity.
func TestMaintPoolSweepRemoves(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // two workers
	f := New(trees.SFOpt, WithShards(4))
	defer f.Close()
	h := f.NewHandle()
	for k := uint64(0); k < 4096; k++ {
		h.Insert(k, k)
	}
	for k := uint64(0); k < 4096; k++ {
		h.Delete(k)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// BusyNanos is charged when a worker's sweep ends, so wait for it
		// too — removals are visible slightly before the sweep accounting.
		if f.MaintenanceStats().Removals > 0 && f.PoolStats().BusyNanos > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool removed nothing: %+v (pool %+v)", f.MaintenanceStats(), f.PoolStats())
		}
		time.Sleep(time.Millisecond)
	}
	if ps := f.PoolStats(); ps.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", ps.Workers)
	}
	// Every node is eventually unlinked: a deleted node with two children
	// stays until sweeps have removed enough below it.
	for deadline = time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resume := f.drv.Pause()
		left := 0
		for _, m := range f.maps {
			st, _ := sfTreeOf(m)
			left += st.PhysicalSize()
		}
		resume()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d nodes still reachable after 5s of pool sweeps", left)
		}
	}
}

// TestMaintPoolStopsOnClose: after Close no maintenance runs — counters
// freeze even under further updates (the regression guard the per-shard
// goroutine design had, retargeted at the pool).
func TestMaintPoolStopsOnClose(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // two workers
	f := New(trees.SF, WithShards(4))
	h := f.NewHandle()
	for k := uint64(0); k < 1024; k++ {
		h.Insert(k, k)
	}
	f.Close()
	before, pBefore := f.MaintenanceStats(), f.PoolStats()
	for k := uint64(0); k < 1024; k += 2 {
		h.Delete(k)
	}
	time.Sleep(20 * time.Millisecond)
	after, pAfter := f.MaintenanceStats(), f.PoolStats()
	if after.Passes != before.Passes || pAfter != pBefore {
		t.Fatalf("maintenance advanced after Close: %+v -> %+v, pool %+v -> %+v", before, after, pBefore, pAfter)
	}
}

// TestMaintPoolStress races the shared worker pool against concurrent
// Update/Move/Range/Insert/Delete traffic on many shards (run under -race
// by the Makefile's race target). The oracle here is crash-freedom plus
// post-Quiesce invariants; value-level linearizability is covered by the
// per-operation tests.
func TestMaintPoolStress(t *testing.T) {
	const keyRange = 1 << 9
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // two workers
	f := New(trees.SFOpt, WithShards(8), WithYield(64))
	defer f.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			h := f.NewHandle()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(8) {
				case 0, 1, 2:
					h.Insert(k, k)
				case 3, 4:
					h.Delete(k)
				case 5:
					h.Move(k, uint64(rng.Intn(keyRange)))
				case 6:
					h.Range(k, k+64, func(_, _ uint64) bool { return true })
				default:
					h.Update(func(op *Op) {
						if v, ok := op.Get(k); ok {
							op.Delete(k)
							op.Insert(k, v+1)
						} else {
							op.Insert(k, 1)
						}
					})
				}
			}
		}(int64(g)*104729 + 17)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	f.Quiesce(1 << 20)
	checkShardInvariants(t, f, false)
}
