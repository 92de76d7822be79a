package repro

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func allKinds() []Kind {
	return []Kind{SpeculationFriendly, SpeculationFriendlyOptimized, RedBlack, AVL, NoRestructuring}
}

func TestPublicAPIBasics(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(string(kind), func(t *testing.T) {
			tr := NewTree(kind)
			defer tr.Close()
			h := tr.NewHandle()
			if !h.Insert(42, 420) {
				t.Fatal("insert failed")
			}
			if h.Insert(42, 1) {
				t.Fatal("duplicate insert")
			}
			if v, ok := h.Get(42); !ok || v != 420 {
				t.Fatalf("get = (%d,%v)", v, ok)
			}
			if !h.Contains(42) || h.Contains(43) {
				t.Fatal("contains wrong")
			}
			if !h.Delete(42) || h.Delete(42) {
				t.Fatal("delete semantics")
			}
			if h.Len() != 0 {
				t.Fatal("len after delete")
			}
		})
	}
}

func TestPublicAPIMoveAndKeys(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized)
	defer tr.Close()
	h := tr.NewHandle()
	for k := uint64(0); k < 10; k++ {
		h.Insert(k, k*10)
	}
	if !h.Move(3, 100) {
		t.Fatal("move failed")
	}
	if h.Contains(3) {
		t.Fatal("source survived move")
	}
	if v, ok := h.Get(100); !ok || v != 30 {
		t.Fatalf("moved value = (%d,%v)", v, ok)
	}
	keys := h.Keys()
	if len(keys) != 10 {
		t.Fatalf("keys = %v", keys)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("unsorted keys: %v", keys)
		}
	}
}

func TestPublicAPIComposedUpdate(t *testing.T) {
	tr := NewTree(SpeculationFriendly)
	defer tr.Close()
	h := tr.NewHandle()
	h.Insert(1, 11)
	// A compose-everything transaction: conditional move plus an insert.
	h.Update(func(op *Op) {
		if v, ok := op.Get(1); ok && !op.Contains(2) {
			op.Delete(1)
			op.Insert(2, v)
		}
		op.Insert(3, 33)
	})
	if h.Contains(1) || !h.Contains(2) || !h.Contains(3) {
		t.Fatal("composed update not atomic/visible")
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized)
	defer tr.Close()
	const goroutines = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h := tr.NewHandle()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			base := uint64(g * 1000)
			for i := 0; i < 500; i++ {
				k := base + uint64(rng.Intn(500))
				switch rng.Intn(3) {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(g)
	}
	wg.Wait()
	st := tr.Stats()
	if st.Commits == 0 {
		t.Fatal("no commits recorded")
	}
	tr.Maintain(100000)
	if ms := tr.MaintenanceStats(); ms.Passes == 0 {
		t.Fatal("maintenance never ran")
	}
}

func TestWithTMModeAndWithoutMaintenance(t *testing.T) {
	tr := NewTree(SpeculationFriendly, WithTMMode(ElasticTransactions), WithoutMaintenance())
	defer tr.Close()
	h := tr.NewHandle()
	for k := uint64(0); k < 64; k++ {
		h.Insert(k, k)
	}
	for k := uint64(0); k < 64; k += 2 {
		h.Delete(k)
	}
	if h.Len() != 32 {
		t.Fatalf("len = %d", h.Len())
	}
	tr.Maintain(10000) // manual maintenance must still work
	if tr.MaintenanceStats().Removals == 0 {
		t.Fatal("manual Maintain did not remove deleted nodes")
	}
}

func TestBaselineKindsStats(t *testing.T) {
	tr := NewTree(RedBlack)
	defer tr.Close()
	h := tr.NewHandle()
	h.Insert(1, 1)
	if ms := tr.MaintenanceStats(); ms.Passes != 0 || ms.Rotations != 0 {
		t.Fatal("red-black tree reported SF maintenance stats")
	}
	tr.Maintain(10) // must be a harmless no-op
}

func TestShardedTreeBasics(t *testing.T) {
	tr := NewTree(SpeculationFriendlyOptimized, WithShards(4))
	defer tr.Close()
	if tr.Shards() != 4 {
		t.Fatalf("shards = %d", tr.Shards())
	}
	h := tr.NewHandle()
	const n = 256
	for k := uint64(0); k < n; k++ {
		if !h.Insert(k, k*2) {
			t.Fatalf("insert %d", k)
		}
	}
	if h.Len() != n {
		t.Fatalf("len = %d", h.Len())
	}
	keys := h.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("unsorted keys")
		}
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := h.Get(k); !ok || v != k*2 {
			t.Fatalf("get %d = (%d,%v)", k, v, ok)
		}
	}
	if !h.Move(1, 1000) {
		t.Fatal("move failed")
	}
	if v, ok := h.Get(1000); !ok || v != 2 {
		t.Fatal("moved value wrong")
	}
	if tr.Stats().Commits == 0 {
		t.Fatal("no commits")
	}
	tr.Maintain(100000)
}

// TestShardedUpdate: on a sharded tree Update composes keys of any shards
// in one transaction — a composed move to a key on another shard applies.
func TestShardedUpdate(t *testing.T) {
	tr := NewTree(SpeculationFriendly, WithShards(4))
	defer tr.Close()
	h := tr.NewHandle()
	var k2 uint64
	for k := uint64(8); ; k++ {
		if tr.f.ShardOf(k) != tr.f.ShardOf(7) {
			k2 = k
			break
		}
	}
	h.Insert(7, 77)
	h.Update(func(op *Op) {
		if v, ok := op.Get(7); ok && !op.Contains(k2) {
			op.Delete(7)
			op.Insert(k2, v)
		}
	})
	if h.Contains(7) {
		t.Fatal("composed delete not applied")
	}
	if v, ok := h.Get(k2); !ok || v != 77 {
		t.Fatal("composed cross-shard insert not applied")
	}
}

func TestUpdateOnUnshardedTree(t *testing.T) {
	tr := NewTree(RedBlack)
	defer tr.Close()
	h := tr.NewHandle()
	h.Update(func(op *Op) { op.Insert(5, 50) })
	if v, ok := h.Get(5); !ok || v != 50 {
		t.Fatal("Update not applied")
	}
}

// TestNewTreeRejectsBadShardCount: a shard count below one is a
// configuration error, which NewTree panics on with the message Open
// returns as its error.
func TestNewTreeRejectsBadShardCount(t *testing.T) {
	for _, n := range []int{0, -3} {
		want := fmt.Sprintf("repro: shard count %d < 1", n)
		if _, err := Open(t.TempDir(), SpeculationFriendly, WithShards(n)); err == nil || err.Error() != want {
			t.Fatalf("Open with %d shards: err %v, want %q", n, err, want)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != want {
					t.Fatalf("NewTree with %d shards: panic %v, want %q", n, r, want)
				}
			}()
			NewTree(SpeculationFriendly, WithShards(n)).Close()
		}()
	}
}

func TestPublicAPIRangeAndAscend(t *testing.T) {
	for _, kind := range allKinds() {
		for _, shards := range []int{1, 8} {
			tr := NewTree(kind, WithShards(shards))
			h := tr.NewHandle()
			for k := uint64(0); k < 100; k++ {
				h.Insert(k, k*3)
			}
			for k := uint64(0); k < 100; k += 2 {
				h.Delete(k)
			}
			var got []uint64
			if !h.Range(10, 30, func(k, v uint64) bool {
				if v != k*3 {
					t.Errorf("%s/%d: value %d at key %d", kind, shards, v, k)
				}
				got = append(got, k)
				return true
			}) {
				t.Fatalf("%s/%d: full-interval scan reported early stop", kind, shards)
			}
			want := []uint64{11, 13, 15, 17, 19, 21, 23, 25, 27, 29}
			if len(got) != len(want) {
				t.Fatalf("%s/%d: Range(10,30) = %v", kind, shards, got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s/%d: Range(10,30) = %v", kind, shards, got)
				}
			}
			n := 0
			h.Ascend(func(_, _ uint64) bool { n++; return true })
			if n != 50 || n != h.Len() {
				t.Fatalf("%s/%d: Ascend visited %d, Len %d", kind, shards, n, h.Len())
			}
			// Early stop propagates through every layer.
			n = 0
			if h.Ascend(func(_, _ uint64) bool { n++; return n < 7 }) {
				t.Fatalf("%s/%d: stopped Ascend reported completion", kind, shards)
			}
			if n != 7 {
				t.Fatalf("%s/%d: stopped Ascend visited %d", kind, shards, n)
			}
			tr.Close()
		}
	}
}

// TestCloseStatsRace hammers Stats/MaintenanceStats concurrently with
// repeated Close on both the single-domain and sharded paths: the maint
// flag must not be a data race (run under -race), double Close must be a
// no-op, and maintenance must be stopped for good once everything returns.
func TestCloseStatsRace(t *testing.T) {
	for _, shards := range []int{1, 8} {
		tr := NewTree(SpeculationFriendly, WithShards(shards))
		h := tr.NewHandle()
		for k := uint64(0); k < 512; k++ {
			h.Insert(k, k)
			if k%2 == 0 {
				h.Delete(k)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					tr.Stats()
					tr.MaintenanceStats()
				}
			}()
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr.Close()
			}()
		}
		wg.Wait()
		tr.Close() // documented no-op on an already-closed tree
		passes := tr.MaintenanceStats().Passes
		time.Sleep(50 * time.Millisecond)
		if after := tr.MaintenanceStats().Passes; after != passes {
			t.Fatalf("shards=%d: maintenance still running after Close (%d -> %d passes)",
				shards, passes, after)
		}
	}
}

// TestRangeMoveZeroAllocsFacade: Handle.Range and Handle.Move stay off the
// allocator in steady state at one shard and at eight (the handle's scan
// state, its same-shard Mover or pooled cross-shard transaction), on the
// speculation-friendly tree and on the red-black baseline, and so do Get
// and an Insert+Delete pair (the tree's operation frame); a Range callback
// may use the handle it came from.
func TestRangeMoveZeroAllocsFacade(t *testing.T) {
	const n = 1 << 10
	for _, c := range []struct {
		kind   Kind
		shards int
	}{{SpeculationFriendlyOptimized, 1}, {SpeculationFriendlyOptimized, 8}, {RedBlack, 1}, {RedBlack, 8}} {
		kind, shards := c.kind, c.shards
		tr := NewTree(kind, WithShards(shards), WithoutMaintenance())
		h := tr.NewHandle()
		for i := uint64(0); i < n; i++ {
			h.Insert(i*40503&(n-1), i)
		}
		tr.Maintain(64)
		for k := uint64(1); k < n; k += 2 {
			h.Delete(k)
		}
		visited := 0
		fn := func(_, _ uint64) bool { visited++; return true }
		lo := uint64(0)
		scan := func() {
			lo = (lo + 97) % (n - 100)
			h.Range(lo, lo+99, fn)
		}
		i, odd := uint64(0), [n / 2]bool{}
		move := func() { // the live key of pair i onto its deleted sibling
			i = (i + 97) % (n / 2)
			src, dst := 2*i, 2*i+1
			if odd[i] {
				src, dst = dst, src
			}
			if !h.Move(src, dst) {
				t.Fatalf("%s shards=%d: Move(%d, %d) failed", kind, shards, src, dst)
			}
			odd[i] = !odd[i]
		}
		get := func() {
			i = (i + 97) % (n / 2)
			h.Get(2 * i)
		}
		insertDelete := func() { // a key beyond the filled range
			if !h.Insert(n+7, 7) || !h.Delete(n+7) {
				t.Fatalf("%s shards=%d: Insert+Delete of an absent key failed", kind, shards)
			}
		}
		for name, op := range map[string]func(){"Range": scan, "Move": move, "Get": get, "InsertDelete": insertDelete} {
			for w := 0; w < 8; w++ {
				op() // warm up: scan buffers, the mover's state, the frame
			}
			if avg := testing.AllocsPerRun(100, op); avg != 0 {
				t.Errorf("%s shards=%d: %s allocates %.2f times per run, want 0", kind, shards, name, avg)
			}
		}
		if visited == 0 {
			t.Errorf("%s shards=%d: the scans visited nothing", kind, shards)
		}

		nested := 0
		h.Range(0, 99, func(k, _ uint64) bool {
			if k == 50 || k == 51 {
				h.Range(100, 199, func(_, _ uint64) bool { nested++; return true })
				nested += h.Len()
			}
			return true
		})
		if nested != 50+n/2 {
			t.Errorf("%s shards=%d: a scan and a Len nested in a Range callback counted %d, want %d", kind, shards, nested, 50+n/2)
		}
		tr.Close()
	}
}
