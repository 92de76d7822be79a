package forest

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stm"
	"repro/internal/trees"
)

func TestShardRouting(t *testing.T) {
	f := New(trees.SFOpt, WithShards(8), WithoutMaintenance())
	defer f.Close()
	counts := make([]int, f.Shards())
	for k := uint64(0); k < 1<<12; k++ {
		si := f.ShardOf(k)
		if si < 0 || si >= f.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range", k, si)
		}
		if f.ShardOf(k) != si {
			t.Fatal("ShardOf is not stable")
		}
		if f.SameShard(k, k) != true {
			t.Fatal("SameShard(k,k) = false")
		}
		if f.SameShard(k, k+1) != (si == f.ShardOf(k+1)) {
			t.Fatal("SameShard disagrees with ShardOf")
		}
		counts[si]++
	}
	// The avalanche hash must spread a dense key range roughly evenly: no
	// shard may be empty or hold more than twice its fair share.
	fair := int(1<<12) / f.Shards()
	for si, c := range counts {
		if c == 0 || c > 2*fair {
			t.Fatalf("shard %d holds %d of %d keys (fair share %d)", si, c, 1<<12, fair)
		}
	}
}

func TestSingleShardIsPassthrough(t *testing.T) {
	f := New(trees.SF, WithShards(1), WithoutMaintenance())
	defer f.Close()
	for k := uint64(0); k < 100; k++ {
		if f.ShardOf(k) != 0 {
			t.Fatalf("ShardOf(%d) = %d with one shard", k, f.ShardOf(k))
		}
		if !f.SameShard(k, k*7919) {
			t.Fatal("SameShard false with one shard")
		}
	}
}

func TestBasicOpsAcrossShards(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4))
	defer f.Close()
	h := f.NewHandle()
	const n = 512
	for k := uint64(0); k < n; k++ {
		if !h.Insert(k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
		if h.Insert(k, 1) {
			t.Fatalf("duplicate insert %d succeeded", k)
		}
	}
	if h.Len() != n {
		t.Fatalf("len = %d, want %d", h.Len(), n)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := h.Get(k); !ok || v != k*10 {
			t.Fatalf("get %d = (%d,%v)", k, v, ok)
		}
	}
	keys := h.Keys()
	if len(keys) != n {
		t.Fatalf("keys: %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("unsorted merged keys at %d", i)
		}
	}
	for k := uint64(0); k < n; k += 2 {
		if !h.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if h.Len() != n/2 {
		t.Fatalf("len after deletes = %d", h.Len())
	}
	// The handle's per-shard threads account for every routed op.
	var commits uint64
	for _, st := range h.ShardStats() {
		commits += st.Commits
	}
	if commits == 0 {
		t.Fatal("no routed operations recorded")
	}
}

func TestMoveSemantics(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()

	// Find a same-shard pair and a cross-shard pair.
	same, cross := uint64(0), uint64(0)
	for k := uint64(1); k < 1000; k++ {
		if f.SameShard(100, k) && k != 100 && same == 0 {
			same = k
		}
		if !f.SameShard(100, k) && cross == 0 {
			cross = k
		}
	}
	if same == 0 || cross == 0 {
		t.Fatal("could not find shard pairs")
	}

	h.Insert(100, 42)
	if !h.Move(100, same) {
		t.Fatal("same-shard move failed")
	}
	if v, ok := h.Get(same); !ok || v != 42 {
		t.Fatal("value lost in same-shard move")
	}
	if !h.Move(same, cross) {
		t.Fatal("cross-shard move failed")
	}
	if v, ok := h.Get(cross); !ok || v != 42 {
		t.Fatal("value lost in cross-shard move")
	}
	if h.Contains(100) || h.Contains(same) {
		t.Fatal("source keys survived moves")
	}
	// Move onto an occupied destination must fail and restore the source.
	h.Insert(100, 7)
	if h.Move(cross, 100) {
		t.Fatal("move onto occupied destination succeeded")
	}
	if v, ok := h.Get(cross); !ok || v != 42 {
		t.Fatal("failed cross-shard move did not restore the source")
	}
	// Moving an absent key fails.
	if h.Move(99999, 1) {
		t.Fatal("move of absent key succeeded")
	}
}

func TestUpdateRoutedAndGuarded(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()

	// A composed same-shard move through Update.
	var k2 uint64
	for k := uint64(1); ; k++ {
		if f.SameShard(5, k) && k != 5 {
			k2 = k
			break
		}
	}
	h.Insert(5, 55)
	h.Update(5, func(op *Op) {
		if v, ok := op.Get(5); ok && !op.Contains(k2) {
			op.Delete(5)
			op.Insert(k2, v)
		}
	})
	if h.Contains(5) {
		t.Fatal("composed delete not applied")
	}
	if v, ok := h.Get(k2); !ok || v != 55 {
		t.Fatal("composed insert not applied")
	}

	// Touching a foreign-shard key inside the transaction must panic.
	var foreign uint64
	for k := uint64(0); ; k++ {
		if !f.SameShard(5, k) {
			foreign = k
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("foreign-shard access inside Update did not panic")
		}
	}()
	h.Update(5, func(op *Op) { op.Contains(foreign) })
}

// TestSingleShardMatchesBareTree drives an identical deterministic operation
// stream against a one-shard forest and a bare tree of the same kind: every
// return value and the final key sets must agree exactly (the forest with
// S=1 is the bare tree).
func TestSingleShardMatchesBareTree(t *testing.T) {
	for _, kind := range []trees.Kind{trees.SF, trees.SFOpt, trees.RB} {
		t.Run(string(kind), func(t *testing.T) {
			f := New(kind, WithShards(1), WithContentionManager(stm.Suicide()), WithoutMaintenance())
			defer f.Close()
			fh := f.NewHandle()

			s := stm.New(stm.WithContentionManager(stm.Suicide()))
			bare := trees.New(kind, s)
			th := s.NewThread()

			rng := rand.New(rand.NewSource(99))
			const keyRange = 1 << 9
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(4) {
				case 0:
					if fh.Insert(k, k*3) != bare.Insert(th, k, k*3) {
						t.Fatalf("op %d: insert(%d) diverged", i, k)
					}
				case 1:
					if fh.Delete(k) != bare.Delete(th, k) {
						t.Fatalf("op %d: delete(%d) diverged", i, k)
					}
				case 2:
					fv, fok := fh.Get(k)
					bv, bok := bare.Get(th, k)
					if fv != bv || fok != bok {
						t.Fatalf("op %d: get(%d) diverged", i, k)
					}
				default:
					src, dst := k, uint64(rng.Intn(keyRange))
					if fh.Move(src, dst) != trees.Move(bare, th, src, dst) {
						t.Fatalf("op %d: move(%d,%d) diverged", i, src, dst)
					}
				}
			}
			if !reflect.DeepEqual(fh.Keys(), bare.Keys(th)) {
				t.Fatal("final key sets diverged")
			}
		})
	}
}

// TestConcurrentStress hammers a multi-shard forest from several goroutines
// over disjoint key slices, then verifies the surviving set against a model.
func TestConcurrentStress(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithYield(4))
	defer f.Close()
	const goroutines = 4
	const perG = 3000
	type result struct{ final map[uint64]uint64 }
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := f.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)))
			model := make(map[uint64]uint64)
			base := uint64(g) << 32 // disjoint per-goroutine key slices
			for i := 0; i < perG; i++ {
				k := base + uint64(rng.Intn(512))
				switch rng.Intn(3) {
				case 0:
					if h.Insert(k, k) {
						model[k] = k
					}
				case 1:
					if h.Delete(k) {
						delete(model, k)
					}
				default:
					if _, ok := h.Get(k); ok != (func() bool { _, m := model[k]; return m })() {
						panic("get diverged from model")
					}
				}
			}
			results[g] = result{final: model}
		}(g)
	}
	wg.Wait()
	f.Quiesce(1 << 20)
	h := f.NewHandle()
	want := 0
	for _, r := range results {
		want += len(r.final)
		for k, v := range r.final {
			if got, ok := h.Get(k); !ok || got != v {
				t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, got, ok, v)
			}
		}
	}
	if h.Len() != want {
		t.Fatalf("len = %d, want %d", h.Len(), want)
	}
	f.Close() // quiesce the maintenance threads before reading their stats
	if f.Stats().Commits == 0 {
		t.Fatal("no commits recorded")
	}
	if f.MaintenanceStats().Passes == 0 {
		t.Fatal("maintenance never ran on any shard")
	}
}
