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

// TestScanOpsAccounting verifies that Len, Keys and Range each run exactly
// one transaction on the handle's one STM thread, over an empty forest and
// over one whose every shard is populated.
func TestScanOpsAccounting(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance())
	defer f.Close()

	h := f.NewHandle()
	if h.Len() != 0 || len(h.Keys()) != 0 {
		t.Fatal("empty forest scan not empty")
	}
	h.Range(0, ^uint64(0), func(_, _ uint64) bool { t.Error("element in empty forest"); return true })
	if st := h.Stats(); st.Commits != 3 {
		t.Fatalf("three empty-forest scans committed %d transactions, want 3", st.Commits)
	}

	// Populated forest: every shard holds keys (dense range over 4 shards),
	// and each scan is still one transaction.
	w := f.NewHandle()
	for k := uint64(0); k < 256; k++ {
		w.Insert(k, k)
	}
	h2 := f.NewHandle()
	h2.Len()
	h2.Keys()
	h2.Range(0, 255, func(_, _ uint64) bool { return true })
	if st := h2.Stats(); st.Commits != 3 {
		t.Fatalf("three scans of 4 populated shards committed %d transactions, want 3", st.Commits)
	}
}

// TestRangeConcurrentWithMoves overlaps merged scans with cross-shard
// moves: every scan is one snapshot, so it is sorted, untorn and holds
// every moving value exactly once.
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
		prev, first, seen := uint64(0), true, 0
		rh.Range(0, 2*n, func(k, v uint64) bool {
			seen++
			if !first && k <= prev {
				t.Errorf("unsorted under moves: %d after %d", k, prev)
			}
			if v != 1 {
				t.Errorf("torn value %d at key %d", v, k)
			}
			prev, first = k, false
			return true
		})
		if seen != n {
			t.Fatalf("scan %d saw %d values, want %d", i, seen, n)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRangeNeverSeesHalfMove: on 8 shards, movers shuttle N distinct values
// between key pairs whose keys live on different shards while scanners run
// Range, Keys and Len. A multi-shard scan is one snapshot, so every scan
// holds exactly N values, none twice: a scan that cut the shards at
// different instants would see a value that crossed shards mid-scan at both
// keys or at neither.
func TestRangeNeverSeesHalfMove(t *testing.T) {
	const pairs = 64
	f := New(trees.SFOpt, WithShards(8))
	defer f.Close()
	var a, b [pairs]uint64
	home := map[uint64]int{} // key → its pair
	for i := range pairs {
		a[i] = uint64(i)
		b[i] = 1<<32 | uint64(i)<<8
		for f.ShardOf(b[i]) == f.ShardOf(a[i]) {
			b[i]++
		}
		home[a[i]], home[b[i]] = i, i
	}
	h := f.NewHandle()
	for i := range pairs {
		h.Insert(a[i], uint64(i))
	}

	var stop atomic.Bool
	var movers sync.WaitGroup
	for m := range 2 {
		movers.Add(1)
		go func() {
			defer movers.Done()
			mh := f.NewHandle()
			rng := rand.New(rand.NewSource(int64(m)))
			for !stop.Load() {
				i := rng.Intn(pairs/2)*2 + m // each mover owns half the pairs
				if !mh.Move(a[i], b[i]) {
					mh.Move(b[i], a[i])
				}
			}
		}()
	}

	var scanners sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	scan := func(body func(sh *Handle)) {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			sh := f.NewHandle()
			for i := 0; i < 300 && !stop.Load(); i++ {
				body(sh)
			}
		}()
	}
	scan(func(sh *Handle) {
		var seen [pairs]bool
		n := 0
		sh.Range(0, ^uint64(0), func(k, v uint64) bool {
			if v >= pairs || seen[v] || home[k] != int(v) {
				fail("Range saw value %d at key %d twice or out of place", v, k)
			} else {
				seen[v] = true
			}
			n++
			return true
		})
		if n != pairs {
			fail("Range saw %d values, want %d: a cross-shard move half done", n, pairs)
		}
	})
	scan(func(sh *Handle) {
		var seen [pairs]bool
		ks := sh.Keys()
		for _, k := range ks {
			if seen[home[k]] {
				fail("Keys holds pair %d at both keys", home[k])
			}
			seen[home[k]] = true
		}
		if len(ks) != pairs {
			fail("Keys returned %d keys, want %d: a cross-shard move half done", len(ks), pairs)
		}
	})
	scan(func(sh *Handle) {
		if n := sh.Len(); n != pairs {
			fail("Len = %d, want %d: a cross-shard move half done", n, pairs)
		}
	})
	scanners.Wait()
	stop.Store(true)
	movers.Wait()
}
