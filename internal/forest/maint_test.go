package forest

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(string(kind)+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				f := New(kind, WithShards(shards), WithMaintWorkers(2))
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
						if f.SameShard(k, dst) {
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
	for si, sh := range f.shards {
		st, ok := sfTreeOf(sh.m)
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
	f := New(trees.SFOpt, WithShards(4), WithMaintWorkers(2))
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
		resume := f.pauseMaintenance()
		left := 0
		for _, sh := range f.shards {
			st, _ := sfTreeOf(sh.m)
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
	f := New(trees.SF, WithShards(4), WithMaintWorkers(2))
	h := f.NewHandle()
	for k := uint64(0); k < 1024; k++ {
		h.Insert(k, k)
	}
	f.Close()
	before := f.MaintenanceStats()
	for k := uint64(0); k < 1024; k += 2 {
		h.Delete(k)
	}
	time.Sleep(20 * time.Millisecond)
	after := f.MaintenanceStats()
	if after.Passes != before.Passes || after.BusyNanos != before.BusyNanos {
		t.Fatalf("maintenance advanced after Close: %+v -> %+v", before, after)
	}
}

// TestMaintPoolStress races the shared worker pool against concurrent
// Update/Move/Range/Insert/Delete traffic on many shards (run under -race
// by the Makefile's race target). The oracle here is crash-freedom plus
// post-Quiesce invariants; value-level linearizability is covered by the
// per-operation tests.
func TestMaintPoolStress(t *testing.T) {
	const keyRange = 1 << 9
	f := New(trees.SFOpt, WithShards(8), WithMaintWorkers(2), WithYield(64))
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
					h.Update(k, func(op *Op) {
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

// TestMaintPoolDutyShare: under sustained churn on every shard a pool
// worker works at most its duty share of the wall clock (maintDuty = ¼;
// the gate leaves room for timer slack), where a productive sweep used to
// re-arm after sweepGapMin and keep one worker sweeping continuously.
func TestMaintPoolDutyShare(t *testing.T) {
	const keyRange = 1 << 12
	const workers = 1
	f := New(trees.SFOpt, WithShards(4), WithMaintWorkers(workers))
	defer f.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := f.NewHandle()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			if k := uint64(rng.Intn(keyRange)); rng.Intn(2) == 0 {
				h.Insert(k, k)
			} else {
				h.Delete(k)
			}
			// One writer that yields: the share is of the wall clock, and
			// a worker starved of the CPU would make one sweep (it yields
			// as it walks) outlast the test.
			runtime.Gosched()
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the churn build a backlog first
	before, mBefore := f.PoolStats(), f.MaintenanceStats()
	t0 := time.Now()
	time.Sleep(400 * time.Millisecond)
	after, mAfter := f.PoolStats(), f.MaintenanceStats()
	wall := time.Since(t0)
	stop.Store(true)
	wg.Wait()

	busy := time.Duration(after.BusyNanos - before.BusyNanos)
	work := mAfter.Rotations + mAfter.Removals - mBefore.Rotations - mBefore.Removals
	share := float64(busy) / (float64(wall) * workers)
	t.Logf("busy %v over %d workers × %v (%.2f per worker), %d rotations+removals, %d sweeps",
		busy, workers, wall, share, work, after.Sweeps-before.Sweeps)
	if work == 0 {
		t.Fatal("the pool did no structural work under churn: the budget starved it")
	}
	if share > 0.4 {
		t.Fatalf("pool busy %.2f of the wall clock per worker, over 0.4", share)
	}
}

// TestCloseCutsBudgetRest: Close must not wait out a worker's budget rest.
// The pool's first sweep of a 2¹⁶-key shard nobody has balanced yet is long
// (d) and its rest 3d; a Close issued as that sweep ends has to return well
// inside it.
func TestCloseCutsBudgetRest(t *testing.T) {
	const n = 1 << 16
	f := New(trees.SFOpt, WithoutMaintenance())
	h := f.NewHandle()
	for i := uint64(0); i < n; i++ {
		k := i * 40503 & (n - 1) // odd multiplier: a permutation of [0, n)
		h.Insert(k, k)
	}
	f.maintMu.Lock()
	f.maint, f.maintWorkers = true, 1
	f.startPool()
	f.maintMu.Unlock()
	for f.PoolStats().BusyNanos == 0 { // set as the first sweep ends
		time.Sleep(100 * time.Microsecond)
	}
	d := time.Duration(f.PoolStats().BusyNanos)
	t0 := time.Now()
	f.Close()
	took := time.Since(t0)
	t.Logf("first sweep %v (rest %v); Close returned in %v", d, maintRest*d, took)
	if took > d {
		t.Fatalf("Close took %v with the worker in a %v budget rest: the rest was not cut short", took, maintRest*d)
	}
}
