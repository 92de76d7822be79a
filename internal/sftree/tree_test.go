package sftree

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/obs"
	"repro/internal/stm"
)

func newTree(t *testing.T, v Variant) (*Tree, *stm.Thread) {
	t.Helper()
	s := stm.New()
	tr := New(s, WithVariant(v))
	return tr, s.NewThread()
}

func variants() []Variant { return []Variant{Portable, Optimized} }

func TestVariantString(t *testing.T) {
	if Portable.String() != "SFtree" || Optimized.String() != "Opt SFtree" {
		t.Fatal("variant names drifted from the paper's figure labels")
	}
}

func TestEmptyTree(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		if tr.Contains(th, 5) {
			t.Fatalf("[%v] empty tree contains 5", v)
		}
		if tr.Delete(th, 5) {
			t.Fatalf("[%v] delete on empty tree succeeded", v)
		}
		if _, ok := tr.Get(th, 5); ok {
			t.Fatalf("[%v] get on empty tree succeeded", v)
		}
		if tr.Size(th) != 0 {
			t.Fatalf("[%v] empty size != 0", v)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
	}
}

func TestInsertContainsDelete(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		if !tr.Insert(th, 10, 100) {
			t.Fatalf("[%v] first insert failed", v)
		}
		if tr.Insert(th, 10, 200) {
			t.Fatalf("[%v] duplicate insert succeeded", v)
		}
		if !tr.Contains(th, 10) {
			t.Fatalf("[%v] contains after insert failed", v)
		}
		if val, ok := tr.Get(th, 10); !ok || val != 100 {
			t.Fatalf("[%v] get = (%d,%v), want (100,true)", v, val, ok)
		}
		if !tr.Delete(th, 10) {
			t.Fatalf("[%v] delete failed", v)
		}
		if tr.Delete(th, 10) {
			t.Fatalf("[%v] double delete succeeded", v)
		}
		if tr.Contains(th, 10) {
			t.Fatalf("[%v] contains after delete", v)
		}
	}
}

func TestLogicalResurrection(t *testing.T) {
	// Delete then re-insert: the insert must flip the deleted flag back on
	// the same physical node (paper line 36) and update the value.
	for _, v := range variants() {
		tr, th := newTree(t, v)
		tr.Insert(th, 7, 70)
		phys := tr.PhysicalSize()
		tr.Delete(th, 7)
		if got := tr.PhysicalSize(); got != phys {
			t.Fatalf("[%v] logical delete changed physical size: %d -> %d", v, phys, got)
		}
		if !tr.Insert(th, 7, 71) {
			t.Fatalf("[%v] resurrection insert failed", v)
		}
		if got := tr.PhysicalSize(); got != phys {
			t.Fatalf("[%v] resurrection allocated a node: %d -> %d", v, phys, got)
		}
		if val, _ := tr.Get(th, 7); val != 71 {
			t.Fatalf("[%v] resurrected value = %d, want 71", v, val)
		}
	}
}

func TestKeysSorted(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		ks := []uint64{5, 1, 9, 3, 7, 2, 8}
		for _, k := range ks {
			tr.Insert(th, k, k)
		}
		tr.Delete(th, 3)
		got := tr.Keys(th)
		want := []uint64{1, 2, 5, 7, 8, 9}
		if len(got) != len(want) {
			t.Fatalf("[%v] keys = %v, want %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%v] keys = %v, want %v", v, got, want)
			}
		}
	}
}

func TestKeyRangePanics(t *testing.T) {
	tr, th := newTree(t, Portable)
	defer func() {
		if recover() == nil {
			t.Fatal("MaxKey insert must panic")
		}
	}()
	tr.Insert(th, MaxKey, 0)
}

func TestSequentialVsOracle(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		oracle := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(42))
		const keyRange = 128
		for i := 0; i < 4000; i++ {
			k := uint64(rng.Intn(keyRange))
			switch rng.Intn(3) {
			case 0:
				val := uint64(i)
				_, exists := oracle[k]
				if got := tr.Insert(th, k, val); got == exists {
					t.Fatalf("[%v] op %d: insert(%d) = %v, oracle exists=%v", v, i, k, got, exists)
				}
				if !exists {
					oracle[k] = val
				}
			case 1:
				_, exists := oracle[k]
				if got := tr.Delete(th, k); got != exists {
					t.Fatalf("[%v] op %d: delete(%d) = %v, want %v", v, i, k, got, exists)
				}
				delete(oracle, k)
			case 2:
				val, exists := oracle[k]
				gotV, gotOK := tr.Get(th, k)
				if gotOK != exists || (exists && gotV != val) {
					t.Fatalf("[%v] op %d: get(%d) = (%d,%v), want (%d,%v)", v, i, k, gotV, gotOK, val, exists)
				}
			}
			if i%512 == 0 {
				tr.RunMaintenancePass()
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("[%v] op %d: %v", v, i, err)
				}
			}
		}
		if got, want := tr.Size(th), len(oracle); got != want {
			t.Fatalf("[%v] final size %d, oracle %d", v, got, want)
		}
		keys := tr.Keys(th)
		if len(keys) != len(oracle) {
			t.Fatalf("[%v] keys len %d, oracle %d", v, len(keys), len(oracle))
		}
		for _, k := range keys {
			if _, ok := oracle[k]; !ok {
				t.Fatalf("[%v] tree has spurious key %d", v, k)
			}
		}
	}
}

func TestMaintenanceRemovesDeletedNodes(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		for k := uint64(0); k < 64; k++ {
			tr.Insert(th, k, k)
		}
		for k := uint64(0); k < 64; k += 2 {
			tr.Delete(th, k)
		}
		if !tr.Quiesce(200) {
			t.Fatalf("[%v] did not quiesce", v)
		}
		if got := tr.PhysicalSize(); got != 32 {
			t.Fatalf("[%v] physical size after quiesce = %d, want 32", v, got)
		}
		if got := tr.Size(th); got != 32 {
			t.Fatalf("[%v] abstract size = %d, want 32", v, got)
		}
		st := tr.Stats()
		if st.Removals == 0 {
			t.Fatalf("[%v] no removals counted", v)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
	}
}

func TestMaintenanceBalancesSortedInsert(t *testing.T) {
	// Inserting a sorted sequence with no rebalancing yields a linear tree;
	// quiescing must restore AVL balance (the distributed rotations
	// self-stabilize, §3.1).
	for _, v := range variants() {
		tr, th := newTree(t, v)
		const n = 256
		for k := uint64(0); k < n; k++ {
			tr.Insert(th, k, k)
		}
		if h := tr.Height(); h != n {
			t.Fatalf("[%v] pre-maintenance height = %d, want %d (degenerate)", v, h, n)
		}
		if !tr.Quiesce(10000) {
			t.Fatalf("[%v] did not quiesce", v)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if err := tr.CheckBalanced(1); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if got := tr.Size(th); got != n {
			t.Fatalf("[%v] size after balancing = %d, want %d", v, got, n)
		}
		if tr.Stats().Rotations == 0 {
			t.Fatalf("[%v] no rotations recorded", v)
		}
	}
}

func TestGarbageCollectionFreesNodes(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		for k := uint64(0); k < 128; k++ {
			tr.Insert(th, k, k)
		}
		for k := uint64(0); k < 128; k++ {
			tr.Delete(th, k)
		}
		tr.Quiesce(500)
		if freed := tr.Arena().Frees(); freed < 100 {
			t.Fatalf("[%v] only %d nodes freed, want >= 100", v, freed)
		}
		if got := tr.PhysicalSize(); got > 28 {
			// Two-children deleted nodes may linger, but most must go.
			t.Fatalf("[%v] physical size after full delete = %d", v, got)
		}
		if got := tr.Size(th); got != 0 {
			t.Fatalf("[%v] abstract size = %d, want 0", v, got)
		}
	}
}

func TestMoveSemantics(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		tr.Insert(th, 1, 11)
		tr.Insert(th, 2, 22)

		if tr.Move(th, 3, 4) {
			t.Fatalf("[%v] move of absent key succeeded", v)
		}
		if tr.Move(th, 1, 2) {
			t.Fatalf("[%v] move onto occupied key succeeded", v)
		}
		if !tr.Move(th, 1, 5) {
			t.Fatalf("[%v] legitimate move failed", v)
		}
		if tr.Contains(th, 1) {
			t.Fatalf("[%v] source still present after move", v)
		}
		if val, ok := tr.Get(th, 5); !ok || val != 11 {
			t.Fatalf("[%v] moved value = (%d,%v), want (11,true)", v, val, ok)
		}
		if !tr.Move(th, 2, 2) {
			t.Fatalf("[%v] self-move of present key should succeed", v)
		}
		if tr.Size(th) != 2 {
			t.Fatalf("[%v] size after moves = %d, want 2", v, tr.Size(th))
		}
	}
}

func TestComposedOpsInOneTransaction(t *testing.T) {
	// Reusability (paper §5.4): several operations composed in a single
	// transaction behave atomically.
	for _, v := range variants() {
		tr, th := newTree(t, v)
		th.Atomic(func(tx *stm.Tx) {
			tr.InsertTx(tx, 100, 1)
			tr.InsertTx(tx, 200, 2)
			if !tr.ContainsTx(tx, 100) {
				t.Errorf("[%v] composed tx does not see own insert", v)
			}
		})
		if !tr.Contains(th, 100) || !tr.Contains(th, 200) {
			t.Fatalf("[%v] composed inserts not visible after commit", v)
		}
	}
}

// TestSingleKeyLinearizability hammers one key from many goroutines with
// inserts and deletes; successful inserts and deletes on a single key must
// strictly alternate in any linearization, so |inserts - deletes| <= 1 and
// the final membership equals (inserts > deletes).
func TestSingleKeyLinearizability(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New()
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const k = uint64(99)
			const goroutines = 6
			const opsPer = 300
			var insOK, delOK sync.Map
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var ins, del uint64
					rng := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < opsPer; i++ {
						if rng.Intn(2) == 0 {
							if tr.Insert(th, k, uint64(i)) {
								ins++
							}
						} else {
							if tr.Delete(th, k) {
								del++
							}
						}
					}
					insOK.Store(g, ins)
					delOK.Store(g, del)
				}(g)
			}
			wg.Wait()
			drv.Close()
			var ins, del uint64
			for g := 0; g < goroutines; g++ {
				i, _ := insOK.Load(g)
				d, _ := delOK.Load(g)
				ins += i.(uint64)
				del += d.(uint64)
			}
			present := tr.Contains(s.NewThread(), k)
			switch {
			case ins == del && present:
				t.Fatalf("inserts==deletes==%d but key present", ins)
			case ins == del+1 && !present:
				t.Fatalf("inserts=%d deletes=%d but key absent", ins, del)
			case ins != del && ins != del+1:
				t.Fatalf("impossible history: %d successful inserts, %d successful deletes", ins, del)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentDisjointRanges runs deterministic op sequences on disjoint
// key ranges from several goroutines with maintenance running; each range's
// final contents must match its sequential expectation exactly.
func TestConcurrentDisjointRanges(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New()
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const goroutines = 5
			const rangeSize = 64
			const ops = 800
			oracles := make([]map[uint64]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				oracles[g] = map[uint64]uint64{}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := uint64(g * rangeSize)
					oracle := oracles[g]
					rng := rand.New(rand.NewSource(int64(1000 + g)))
					for i := 0; i < ops; i++ {
						k := base + uint64(rng.Intn(rangeSize))
						if rng.Intn(2) == 0 {
							val := uint64(i)
							if tr.Insert(th, k, val) {
								oracle[k] = val
							}
						} else {
							if tr.Delete(th, k) {
								delete(oracle, k)
							}
						}
					}
				}(g)
			}
			wg.Wait()
			drv.Close()
			tr.Quiesce(5000)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			th := s.NewThread()
			for g := 0; g < goroutines; g++ {
				base := uint64(g * rangeSize)
				for off := uint64(0); off < rangeSize; off++ {
					k := base + off
					want, wantOK := oracles[g][k]
					got, gotOK := tr.Get(th, k)
					if gotOK != wantOK || (wantOK && got != want) {
						t.Fatalf("key %d: tree (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
					}
				}
			}
		})
	}
}

// TestConcurrentMixedWithMoves exercises Contains/Insert/Delete/Move on a
// shared key space under maintenance, checking invariants afterwards.
func TestConcurrentMixedWithMoves(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New()
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const goroutines = 4
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(77 + g)))
					for i := 0; i < 500; i++ {
						k := uint64(rng.Intn(96))
						switch rng.Intn(4) {
						case 0:
							tr.Insert(th, k, uint64(i))
						case 1:
							tr.Delete(th, k)
						case 2:
							tr.Contains(th, k)
						case 3:
							tr.Move(th, k, uint64(rng.Intn(96)))
						}
					}
				}(g)
			}
			wg.Wait()
			drv.Close()
			tr.Quiesce(5000)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckBalanced(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBiasedWorkloadStaysBalanced(t *testing.T) {
	// The biased workload of Fig. 3: inserts skewed towards high keys,
	// deletes towards low keys, forcing continual restructuring. After
	// quiescing, the tree must be AVL-balanced regardless.
	for _, v := range variants() {
		tr, th := newTree(t, v)
		drv := NewDriver(1, tr)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 3000; i++ {
			hi := uint64(8192 + rng.Intn(8192))
			lo := uint64(rng.Intn(8192))
			tr.Insert(th, hi, hi)
			tr.Delete(th, lo)
		}
		drv.Close()
		tr.Quiesce(20000)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if err := tr.CheckBalanced(1); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
	}
}

// TestSweepOnlyBalanceUnderChurn: with the sweep as the only maintenance
// path, two writers churning a balanced, half-filled 2¹³-key tree with the
// biased skew (inserts drawn up, deletes down, by U[0..9]) keep it within
// maxRatio of log₂ of its physical size while they run; afterwards the
// quiesced tree is balanced and the height gauge is exact. The writers
// yield after every operation, as in TestMaintLoopDutyShare: two that never
// do hold both CPUs of a two-core host, and the sweep, which yields every
// maintYieldStride nodes, then waits up to a time slice per yield.
func TestSweepOnlyBalanceUnderChurn(t *testing.T) {
	const (
		keyRange = 1 << 13
		writers  = 2
		maxRatio = 1.6
	)
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			tr, th := newTree(t, v)
			reg := obs.NewRegistry()
			tr.RegisterObs(reg, "")
			present := make([]bool, keyRange)
			for _, k := range rand.New(rand.NewSource(13)).Perm(keyRange)[:keyRange/2] {
				tr.Insert(th, uint64(k), uint64(k))
				present[k] = true
			}
			tr.Quiesce(1 << 20)
			drv := NewDriver(1, tr)

			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := tr.STM().NewThread()
					rng := rand.New(rand.NewSource(int64(w) + 1))
					// skew draws one of this writer's keys (k % writers == w),
					// moved up or down by U[0..9] slots and clamped.
					skew := func(up bool) uint64 {
						i, d := rng.Intn(keyRange/writers), rng.Intn(10)
						if up {
							i = min(i+d, keyRange/writers-1)
						} else {
							i = max(i-d, 0)
						}
						return uint64(i*writers + w)
					}
					// Alternating inserts and deletes keep the tree half full.
					for insert := true; !stop.Load(); insert = !insert {
						k := skew(insert)
						for present[k] == insert {
							k = skew(insert)
						}
						if insert {
							tr.Insert(th, k, k)
						} else {
							tr.Delete(th, k)
						}
						present[k] = insert
						runtime.Gosched()
					}
				}(w)
			}

			var sum float64
			samples := 0
			for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
				time.Sleep(25 * time.Millisecond)
				if h, n, ok := liveShape(tr, 4*keyRange); ok {
					sum += float64(h) / math.Log2(float64(n))
					samples++
				}
			}
			stop.Store(true)
			wg.Wait()
			mean := sum / float64(samples)
			t.Logf("mean height/log2(n) %.3f over %d samples, %+v", mean, samples, tr.Stats())
			if samples < 5 {
				t.Fatalf("only %d usable samples", samples)
			}
			if mean > maxRatio {
				t.Fatalf("mean height/log2(n) %.3f under churn, over %.2f", mean, maxRatio)
			}

			drv.Close()
			tr.Quiesce(1 << 20)
			if err := tr.CheckBalanced(1); err != nil {
				t.Fatal(err)
			}
			if g, _ := reg.Snapshot().Get("sftree_height_estimate", ""); int(g) != tr.Height() {
				t.Fatalf("sftree_height_estimate %v, Height %d", g, tr.Height())
			}
		})
	}
}

// liveShape is Height and PhysicalSize in one walk that is safe beside a
// running maintenance driver. The links it reads with plain loads can
// change under it: a rotation or removal landing mid-walk can make it count
// a subtree twice, or follow a removed node's re-pointed link back up to
// the parent (§3.3). The walk therefore gives up after budget nodes and
// reports ok=false.
func liveShape(tr *Tree, budget int) (height, size int, ok bool) {
	var walk func(ref arena.Ref) int
	walk = func(ref arena.Ref) int {
		if ref == arena.Nil || size >= budget {
			return 0
		}
		size++
		n := tr.node(ref)
		return 1 + max(walk(n.L.Plain()), walk(n.R.Plain()))
	}
	height = walk(tr.node(tr.root).L.Plain())
	return height, size, size < budget
}

func TestStatsSnapshot(t *testing.T) {
	tr, th := newTree(t, Optimized)
	for k := uint64(0); k < 100; k++ {
		tr.Insert(th, k, k)
	}
	tr.Quiesce(5000)
	st := tr.Stats()
	if st.Passes == 0 || st.Rotations == 0 {
		t.Fatalf("stats did not move: %+v", st)
	}
	if tr.Variant() != Optimized {
		t.Fatal("Variant() mismatch")
	}
	if tr.STM() == nil || tr.Arena() == nil {
		t.Fatal("accessors returned nil")
	}
}

func TestSizeAndKeysUnderConcurrentReads(t *testing.T) {
	// Size/Keys run as one big read-only transaction; they must return a
	// consistent snapshot even while writers run.
	s := stm.New()
	tr := New(s, WithVariant(Optimized))
	drv := NewDriver(1, tr)
	th := s.NewThread()
	for k := uint64(0); k < 200; k += 2 {
		tr.Insert(th, k, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	writer := s.NewThread()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(200))
			// Paired insert+delete in one transaction keeps the abstract
			// size invariant at 100 for every consistent snapshot. In a
			// committing attempt the reinsert always takes the resurrection
			// path (the node is still logically present within the same
			// transaction). A doomed ("zombie") attempt, however, can
			// observe a fresh copy-on-rotate node that contradicts the
			// pinned read set — the STM will refuse to commit it, so the
			// correct reaction to the impossible observation is Restart,
			// never trusting it.
			writer.Atomic(func(tx *stm.Tx) {
				if tr.DeleteTx(tx, k) {
					if !tr.InsertTx(tx, k, 1) {
						tx.Restart()
					}
				}
			})
		}
	}()
	reader := s.NewThread()
	for i := 0; i < 50; i++ {
		if got := tr.Size(reader); got != 100 {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot size = %d, want 100", got)
		}
		keys := tr.Keys(reader)
		sorted := sort.SliceIsSorted(keys, func(a, b int) bool { return keys[a] < keys[b] })
		if !sorted {
			close(stop)
			wg.Wait()
			t.Fatal("Keys returned unsorted snapshot")
		}
	}
	close(stop)
	wg.Wait()
	drv.Close()
}
