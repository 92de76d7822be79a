package tlist

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arena"
	"repro/internal/stm"
)

func run(th *stm.Thread, f func(tx *stm.Tx)) { th.Atomic(f) }

func TestBasicOps(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	l := New(arena.New(), new(stm.Word))
	run(th, func(tx *stm.Tx) {
		if !l.InsertTx(tx, 5, 50) {
			t.Error("insert 5 failed")
		}
		if l.InsertTx(tx, 5, 51) {
			t.Error("duplicate insert succeeded")
		}
		if !l.InsertTx(tx, 3, 30) || !l.InsertTx(tx, 7, 70) {
			t.Error("inserts failed")
		}
	})
	run(th, func(tx *stm.Tx) {
		if v, ok := l.GetTx(tx, 5); !ok || v != 50 {
			t.Errorf("get(5) = (%d,%v)", v, ok)
		}
		keys := l.KeysTx(tx)
		want := []uint64{3, 5, 7}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("keys = %v, want %v", keys, want)
			}
		}
		if l.LenTx(tx) != 3 {
			t.Errorf("len = %d", l.LenTx(tx))
		}
	})
	run(th, func(tx *stm.Tx) {
		if !l.RemoveTx(tx, 5) || l.RemoveTx(tx, 5) {
			t.Error("remove semantics")
		}
		if l.ContainsTx(tx, 5) {
			t.Error("contains after remove")
		}
	})
}

func TestSetOverwrites(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	l := New(arena.New(), new(stm.Word))
	run(th, func(tx *stm.Tx) {
		l.SetTx(tx, 1, 10)
		l.SetTx(tx, 1, 11)
		l.SetTx(tx, 2, 20)
	})
	run(th, func(tx *stm.Tx) {
		if v, _ := l.GetTx(tx, 1); v != 11 {
			t.Errorf("set did not overwrite: %d", v)
		}
		if l.LenTx(tx) != 2 {
			t.Errorf("len = %d, want 2", l.LenTx(tx))
		}
	})
}

func TestEachVisitsInOrder(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	l := New(arena.New(), new(stm.Word))
	run(th, func(tx *stm.Tx) {
		for _, k := range []uint64{9, 1, 5, 3, 7} {
			l.InsertTx(tx, k, k*2)
		}
	})
	var got []uint64
	run(th, func(tx *stm.Tx) {
		got = got[:0]
		l.EachTx(tx, func(k, v uint64) {
			if v != k*2 {
				t.Errorf("value mismatch at %d: %d", k, v)
			}
			got = append(got, k)
		})
	})
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatalf("Each out of order: %v", got)
	}
}

func TestRangeTx(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	l := New(arena.New(), new(stm.Word))
	run(th, func(tx *stm.Tx) {
		for _, k := range []uint64{2, 4, 6, 8, 10, 12} {
			l.InsertTx(tx, k, k*10)
		}
	})
	var got []uint64
	run(th, func(tx *stm.Tx) {
		got = got[:0]
		if !l.RangeTx(tx, 4, 10, func(k, v uint64) bool {
			if v != k*10 {
				t.Errorf("value %d at key %d", v, k)
			}
			got = append(got, k)
			return true
		}) {
			t.Error("full scan reported early stop")
		}
	})
	want := []uint64{4, 6, 8, 10}
	if len(got) != len(want) {
		t.Fatalf("RangeTx(4,10) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeTx(4,10) = %v", got)
		}
	}
	// Bounds between elements, inverted interval, early stop.
	run(th, func(tx *stm.Tx) {
		n := 0
		l.RangeTx(tx, 3, 5, func(k, _ uint64) bool { n++; return true })
		if n != 1 {
			t.Errorf("RangeTx(3,5) visited %d", n)
		}
		if !l.RangeTx(tx, 9, 3, func(_, _ uint64) bool { t.Error("visited"); return true }) {
			t.Error("inverted interval reported stop")
		}
		n = 0
		if l.RangeTx(tx, 0, 100, func(_, _ uint64) bool { n++; return n < 2 }) {
			t.Error("stopped scan reported completion")
		}
		if n != 2 {
			t.Errorf("stopped scan visited %d", n)
		}
	})
}

func TestOracleProperty(t *testing.T) {
	s := stm.New()
	th := s.NewThread()
	f := func(ops []uint16) bool {
		l := New(arena.New(), new(stm.Word))
		oracle := map[uint64]uint64{}
		for i, o := range ops {
			k := uint64(o % 32)
			var okL, okO bool
			switch o % 3 {
			case 0:
				run(th, func(tx *stm.Tx) { okL = l.InsertTx(tx, k, uint64(i)) })
				_, exists := oracle[k]
				okO = !exists
				if okL {
					oracle[k] = uint64(i)
				}
			case 1:
				run(th, func(tx *stm.Tx) { okL = l.RemoveTx(tx, k) })
				_, okO = oracle[k]
				delete(oracle, k)
			default:
				var v uint64
				run(th, func(tx *stm.Tx) { v, okL = l.GetTx(tx, k) })
				var vO uint64
				vO, okO = oracle[k]
				if okL && v != vO {
					return false
				}
			}
			if okL != okO {
				return false
			}
		}
		var n int
		run(th, func(tx *stm.Tx) { n = l.LenTx(tx) })
		return n == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertDisjoint(t *testing.T) {
	s := stm.New()
	l := New(arena.New(), new(stm.Word))
	const goroutines = 4
	const per = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		th := s.NewThread()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(g*per + i)
				th.Atomic(func(tx *stm.Tx) { l.InsertTx(tx, k, k) })
			}
		}(g)
	}
	wg.Wait()
	th := s.NewThread()
	var keys []uint64
	th.Atomic(func(tx *stm.Tx) { keys = l.KeysTx(tx) })
	if len(keys) != goroutines*per {
		t.Fatalf("len = %d, want %d", len(keys), goroutines*per)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys out of order at %d: %v", i, keys[i-1:i+1])
		}
	}
}

func TestConcurrentMixedStress(t *testing.T) {
	s := stm.New()
	l := New(arena.New(), new(stm.Word))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		th := s.NewThread()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(24))
				switch rng.Intn(3) {
				case 0:
					th.Atomic(func(tx *stm.Tx) { l.InsertTx(tx, k, k) })
				case 1:
					th.Atomic(func(tx *stm.Tx) { l.RemoveTx(tx, k) })
				default:
					th.Atomic(func(tx *stm.Tx) { l.ContainsTx(tx, k) })
				}
			}
		}(g)
	}
	wg.Wait()
	th := s.NewThread()
	var keys []uint64
	th.Atomic(func(tx *stm.Tx) { keys = l.KeysTx(tx) })
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("sorted order violated: %v", keys)
		}
	}
}
