package forest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/trees"
)

// TestRangeOracle drives, for every tree kind at shards 1 and 8, a phase of
// concurrent random inserts/deletes/range-scans (with maintenance running,
// so the speculation-friendly shards rotate under the scans) followed by a
// quiescent exact comparison against a mutex-protected reference map.
//
// During the churn the scans assert the invariants that hold under
// concurrency — in-bounds, strictly ascending (hence duplicate-free), and
// untorn (the workload keeps v == k*10 for every live key) — and after the
// workers join, full and partial ranges must match the reference exactly.
func TestRangeOracle(t *testing.T) {
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				testRangeOracle(t, kind, shards)
			})
		}
	}
}

func testRangeOracle(t *testing.T, kind trees.Kind, shards int) {
	const keyRange = 1 << 10
	const workers = 3
	const opsPerWorker = 2500

	f := New(kind, WithShards(shards))
	defer f.Close()

	var mu sync.Mutex // guards ref
	ref := make(map[uint64]uint64)

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := f.NewHandle()
			rng := rand.New(rand.NewSource(int64(g)*7919 + 1))
			for i := 0; i < opsPerWorker; i++ {
				if rng.Intn(2) == 0 {
					// Workers mutate disjoint key stripes (k ≡ g mod
					// workers), so the tree ops race freely against each
					// other and the scans while each op's return value
					// still exactly determines the reference update; the
					// mutex only protects the shared map's structure.
					k := uint64(rng.Intn(keyRange/workers))*workers + uint64(g)
					if h.Insert(k, k*10) {
						mu.Lock()
						ref[k] = k * 10
						mu.Unlock()
					} else if h.Delete(k) {
						mu.Lock()
						delete(ref, k)
						mu.Unlock()
					}
					continue
				}
				lo := uint64(rng.Intn(keyRange))
				hi := lo + uint64(rng.Intn(keyRange/4))
				prev, first := uint64(0), true
				h.Range(lo, hi, func(k, v uint64) bool {
					if k < lo || k > hi {
						t.Errorf("key %d outside [%d,%d]", k, lo, hi)
					}
					if !first && k <= prev {
						t.Errorf("range not strictly ascending: %d after %d", k, prev)
					}
					if v != k*10 {
						t.Errorf("torn read: key %d value %d", k, v)
					}
					prev, first = k, false
					return true
				})
			}
		}(g)
	}
	wg.Wait()

	// Quiescent phase: every range must now match the reference exactly.
	h := f.NewHandle()
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(keyRange))
		hi := lo + uint64(rng.Intn(keyRange))
		var got [][2]uint64
		h.Range(lo, hi, func(k, v uint64) bool {
			got = append(got, [2]uint64{k, v})
			return true
		})
		var want [][2]uint64
		for k := lo; k <= hi && k < keyRange; k++ {
			if v, ok := ref[k]; ok {
				want = append(want, [2]uint64{k, v})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d]: %d elements, want %d", lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("range [%d,%d][%d] = %v, want %v", lo, hi, i, got[i], want[i])
			}
		}
	}
	// The full ascent must agree with Keys and with the reference size.
	n := 0
	h.Range(0, ^uint64(0), func(_, _ uint64) bool { n++; return true })
	if n != len(ref) || h.Len() != len(ref) {
		t.Fatalf("full range %d, Len %d, reference %d", n, h.Len(), len(ref))
	}
}

// TestRangeEarlyStopAndBounds covers the fn-stop contract and degenerate
// intervals on the merged path.
func TestRangeEarlyStopAndBounds(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	for k := uint64(0); k < 100; k++ {
		h.Insert(k, k)
	}
	var seen []uint64
	if h.Range(10, 50, func(k, _ uint64) bool {
		seen = append(seen, k)
		return len(seen) < 5
	}) {
		t.Fatal("stopped scan reported completion")
	}
	if len(seen) != 5 || seen[0] != 10 || seen[4] != 14 {
		t.Fatalf("early-stopped scan saw %v", seen)
	}
	if !h.Range(60, 20, func(_, _ uint64) bool { t.Error("visited inverted interval"); return true }) {
		t.Fatal("inverted interval reported stop")
	}
	if !h.Range(41, 41, func(k, _ uint64) bool {
		if k != 41 {
			t.Errorf("singleton interval visited %d", k)
		}
		return true
	}) {
		t.Fatal("singleton interval reported stop")
	}
}

// TestScanOpsAccounting verifies that Len/Keys/Range run one transaction on
// each populated shard through the handle's per-shard threads, and that
// scans over an empty forest neither register STM threads with the shards
// nor run any transaction.
func TestScanOpsAccounting(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()

	// Empty forest: scans see nothing, touch nothing, register nothing.
	h := f.NewHandle()
	if h.Len() != 0 || len(h.Keys()) != 0 {
		t.Fatal("empty forest scan not empty")
	}
	h.Range(0, ^uint64(0), func(_, _ uint64) bool { t.Error("element in empty forest"); return true })
	for si, st := range h.ShardStats() {
		if st.Commits != 0 {
			t.Fatalf("empty-forest scan committed on shard %d (%d commits)", si, st.Commits)
		}
	}
	for si, th := range h.ths {
		if th != nil {
			t.Fatalf("empty-forest scan registered a thread with shard %d", si)
		}
	}

	// Populated forest: every shard holds keys (dense range over 4 shards),
	// so each scan commits once on every shard.
	w := f.NewHandle()
	for k := uint64(0); k < 256; k++ {
		w.Insert(k, k)
	}
	h2 := f.NewHandle()
	h2.Len()
	h2.Keys()
	h2.Range(0, 255, func(_, _ uint64) bool { return true })
	for si, st := range h2.ShardStats() {
		if st.Commits != 3 {
			t.Fatalf("shard %d committed %d scans, want 3", si, st.Commits)
		}
	}
}

// TestRangeConcurrentWithMoves overlaps merged scans with cross-shard moves
// to exercise the documented weak spot — a moving value seen at both keys
// or neither — while still requiring sortedness and untorn values.
func TestRangeConcurrentWithMoves(t *testing.T) {
	f := New(trees.SF, WithShards(8))
	defer f.Close()
	h := f.NewHandle()
	const n = 512
	for k := uint64(0); k < n; k++ {
		h.Insert(k, 1)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mh := f.NewHandle()
		rng := rand.New(rand.NewSource(17))
		for !stop.Load() {
			src := uint64(rng.Intn(n))
			dst := uint64(rng.Intn(n)) + n
			if !mh.Move(src, dst) {
				mh.Move(dst, src)
			}
		}
	}()
	rh := f.NewHandle()
	for i := 0; i < 200; i++ {
		prev, first := uint64(0), true
		rh.Range(0, 2*n, func(k, v uint64) bool {
			if !first && k <= prev {
				t.Errorf("unsorted under moves: %d after %d", k, prev)
			}
			if v != 1 {
				t.Errorf("torn value %d at key %d", v, k)
			}
			prev, first = k, false
			return true
		})
	}
	stop.Store(true)
	wg.Wait()
}
