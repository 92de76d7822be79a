package avltree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/stm"
)

func newTree() (*Tree, *stm.Thread) {
	s := stm.New()
	return New(s), s.NewThread()
}

func TestEmpty(t *testing.T) {
	tr, th := newTree()
	if tr.Contains(th, 1) || tr.Delete(th, 1) || tr.Size(th) != 0 {
		t.Fatal("empty tree misbehaves")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBasicOps(t *testing.T) {
	tr, th := newTree()
	if !tr.Insert(th, 5, 50) || tr.Insert(th, 5, 51) {
		t.Fatal("insert semantics")
	}
	if v, ok := tr.Get(th, 5); !ok || v != 50 {
		t.Fatalf("get = (%d,%v)", v, ok)
	}
	if !tr.Delete(th, 5) || tr.Delete(th, 5) {
		t.Fatal("delete semantics")
	}
	// The delete retired the one node: the limbo holds it until a step
	// seals it and the next frees it.
	ar := tr.Arena()
	if ar.Live() != 1 || ar.Frees() != 0 {
		t.Fatalf("after the delete: live %d, frees %d, want 1, 0", ar.Live(), ar.Frees())
	}
	th.Reclaim()
	if n := th.Reclaim(); n != 1 || ar.Live() != 0 {
		t.Fatalf("limbo freed %d (live %d), want 1 (live 0)", n, ar.Live())
	}
}

func TestSortedInsertStaysBalanced(t *testing.T) {
	// The defining AVL property: in-transaction rebalancing keeps the tree
	// balanced after every single operation.
	tr, th := newTree()
	const n = 512
	for k := uint64(0); k < n; k++ {
		if !tr.Insert(th, k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Size(th); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
}

func TestDeleteTwoChildrenSuccessor(t *testing.T) {
	tr, th := newTree()
	for _, k := range []uint64{50, 30, 70, 20, 40, 60, 80} {
		tr.Insert(th, k, k*10)
	}
	if !tr.Delete(th, 50) { // interior node with two children
		t.Fatal("delete of interior node failed")
	}
	if tr.Contains(th, 50) {
		t.Fatal("deleted key still present")
	}
	want := []uint64{20, 30, 40, 60, 70, 80}
	got := tr.Keys(th)
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOracleRandomOps(t *testing.T) {
	tr, th := newTree()
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			_, exists := oracle[k]
			if got := tr.Insert(th, k, uint64(i)); got == exists {
				t.Fatalf("op %d insert(%d)=%v exists=%v", i, k, got, exists)
			}
			if !exists {
				oracle[k] = uint64(i)
			}
		case 1:
			_, exists := oracle[k]
			if got := tr.Delete(th, k); got != exists {
				t.Fatalf("op %d delete(%d)=%v want %v", i, k, got, exists)
			}
			delete(oracle, k)
		default:
			v, exists := oracle[k]
			gv, gok := tr.Get(th, k)
			if gok != exists || (exists && gv != v) {
				t.Fatalf("op %d get(%d)=(%d,%v) want (%d,%v)", i, k, gv, gok, v, exists)
			}
		}
		if i%997 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Size(th) != len(oracle) {
		t.Fatalf("size %d, oracle %d", tr.Size(th), len(oracle))
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(keys []uint16, deletes []uint16) bool {
		tr, th := newTree()
		oracle := map[uint64]bool{}
		for _, k16 := range keys {
			k := uint64(k16)
			if tr.Insert(th, k, k) == oracle[k] {
				return false
			}
			oracle[k] = true
		}
		for _, k16 := range deletes {
			k := uint64(k16)
			if tr.Delete(th, k) != oracle[k] {
				return false
			}
			delete(oracle, k)
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		ks := tr.Keys(th)
		if len(ks) != len(oracle) || !sort.SliceIsSorted(ks, func(a, b int) bool { return ks[a] < ks[b] }) {
			return false
		}
		for _, k := range ks {
			if !oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCounterWorkload(t *testing.T) {
	// Disjoint ranges, concurrent updates: final state must equal each
	// goroutine's sequential expectation, and the AVL invariants must hold.
	s := stm.New()
	tr := New(s)
	const goroutines = 4
	const rangeSize = 50
	oracles := make([]map[uint64]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := s.NewThread()
		oracles[g] = map[uint64]uint64{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * rangeSize)
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 600; i++ {
				k := base + uint64(rng.Intn(rangeSize))
				if rng.Intn(2) == 0 {
					if tr.Insert(th, k, uint64(i)) {
						oracles[g][k] = uint64(i)
					}
				} else {
					if tr.Delete(th, k) {
						delete(oracles[g], k)
					}
				}
			}
		}(g)
	}
	wg.Wait()
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
				t.Fatalf("key %d: (%d,%v) want (%d,%v)", k, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestSingleKeyLinearizability(t *testing.T) {
	s := stm.New()
	tr := New(s)
	const k = uint64(7)
	const goroutines = 5
	results := make([][2]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := s.NewThread()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var ins, del uint64
			for i := 0; i < 300; i++ {
				if rng.Intn(2) == 0 {
					if tr.Insert(th, k, 1) {
						ins++
					}
				} else if tr.Delete(th, k) {
					del++
				}
			}
			results[g] = [2]uint64{ins, del}
		}(g)
	}
	wg.Wait()
	var ins, del uint64
	for _, r := range results {
		ins += r[0]
		del += r[1]
	}
	present := tr.Contains(s.NewThread(), k)
	if ins != del && ins != del+1 {
		t.Fatalf("impossible: %d inserts, %d deletes", ins, del)
	}
	if present != (ins == del+1) {
		t.Fatalf("final presence %v inconsistent with %d/%d", present, ins, del)
	}
}
