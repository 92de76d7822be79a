package forest

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ftx"
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
	// The handle's one thread accounts for every routed op: n inserts, n/2
	// deletes (the n failed duplicate inserts commit read-only).
	if c := h.Stats().Commits; c < n+n/2 {
		t.Fatalf("handle thread recorded %d commits, want at least %d", c, n+n/2)
	}
}

func TestMoveSemantics(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()

	// Find a same-shard pair and a cross-shard pair.
	same, cross := uint64(0), uint64(0)
	for k := uint64(1); k < 1000; k++ {
		if f.ShardOf(100) == f.ShardOf(k) && k != 100 && same == 0 {
			same = k
		}
		if f.ShardOf(100) != f.ShardOf(k) && cross == 0 {
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

// TestUpdateRoutedAndGuarded: Update routes every Op key to its own
// shard's tree inside one transaction — composed moves to a same-shard and
// to a foreign-shard key both apply, and one Update over keys on every
// shard is one commit — and a nested Update on the same handle panics
// instead of composing two transactions.
func TestUpdateRoutedAndGuarded(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()

	var same, foreign uint64
	for k := uint64(6); same == 0 || foreign == 0; k++ {
		if f.ShardOf(5) == f.ShardOf(k) && same == 0 {
			same = k
		}
		if f.ShardOf(5) != f.ShardOf(k) && foreign == 0 {
			foreign = k
		}
	}
	move := func(src, dst uint64) {
		h.Update(func(op *Op) {
			if v, ok := op.Get(src); ok && !op.Contains(dst) {
				op.Delete(src)
				op.Insert(dst, v)
			}
		})
	}
	h.Insert(5, 55)
	move(5, same)
	move(same, foreign)
	if h.Contains(5) || h.Contains(same) {
		t.Fatal("composed delete not applied")
	}
	if v, ok := h.Get(foreign); !ok || v != 55 {
		t.Fatal("composed cross-shard insert not applied")
	}

	before := h.Stats().Commits
	h.Update(func(op *Op) {
		for k := uint64(1000); k < 1064; k++ {
			op.Insert(k, k)
		}
	})
	if c := h.Stats().Commits - before; c != 1 {
		t.Fatalf("an Update over every shard took %d commits, want 1", c)
	}
	if h.Len() != 65 {
		t.Fatalf("len = %d, want 65", h.Len())
	}

	defer func() {
		if recover() == nil {
			t.Fatal("nested Update did not panic")
		}
	}()
	h.Update(func(op *Op) { h.Update(func(op *Op) {}) })
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

// TestHandleRegistersOneThread: a handle that touches all 8 shards — single
// keys, a cross-shard Move, Atomic, Update and the scans — registers exactly
// one STM thread with the forest's domain, and so does the checkpointer
// snapshotting every shard. Every tree's epoch collector scans every
// registered thread on each maintenance pass, so a thread per shard would
// multiply that cost by the shard count.
func TestHandleRegistersOneThread(t *testing.T) {
	f := New(trees.SFOpt, WithShards(8), WithoutMaintenance())
	defer f.Close()
	threads := func() int { return len(f.stm.Threads()) }
	before := threads()

	h := f.NewHandle()
	hit := map[int]bool{}
	for k := uint64(0); len(hit) < f.Shards(); k++ {
		hit[f.ShardOf(k)] = true
		h.Insert(k, k)
		h.Get(k)
	}
	dst := uint64(1 << 40)
	for f.ShardOf(dst) == f.ShardOf(0) {
		dst++
	}
	if !h.Move(0, dst) {
		t.Fatal("cross-shard Move failed")
	}
	h.Atomic(func(tx *ftx.Tx) error {
		for k := uint64(1); k < 64; k++ {
			v, _ := tx.Get(k)
			tx.Put(k, v+1)
		}
		return nil
	})
	h.Update(func(op *Op) {
		for k := uint64(1); k < 64; k++ {
			op.Delete(k)
		}
	})
	h.Range(0, ^uint64(0), func(_, _ uint64) bool { return true })
	h.Len()
	h.Keys()
	if n := threads() - before; n != 1 {
		t.Fatalf("a handle touching every shard registered %d STM threads, want 1", n)
	}

	for si := range f.Shards() {
		f.SnapshotShard(si, func(_, _ uint64) {})
	}
	if n := threads() - before; n != 2 {
		t.Fatalf("the checkpointer over every shard registered %d STM threads, want 1", n-1)
	}
}
