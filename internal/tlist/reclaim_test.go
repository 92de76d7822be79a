package tlist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arena"
	"repro/internal/stm"
)

// TestChurnRecyclesCells: a removal retires the cell it unlinks and the
// thread's limbo gives it back to the arena, so churn on one key keeps the
// arena at the list's length plus at most two limbo generations.
func TestChurnRecyclesCells(t *testing.T) {
	th := stm.New().NewThread()
	ar := arena.New()
	l := New(ar, new(stm.Word))
	const cycles = 10000
	for i := uint64(0); i < cycles; i++ {
		ok := true
		run(th, func(tx *stm.Tx) { ok = l.InsertTx(tx, 5, i) })
		run(th, func(tx *stm.Tx) { ok = ok && l.RemoveTx(tx, 5) })
		if !ok {
			t.Fatalf("cycle %d: insert/remove of key 5 failed", i)
		}
	}
	var size int
	run(th, func(tx *stm.Tx) { size = l.LenTx(tx) })
	if live := ar.Live(); live > uint64(size)+2*stm.ReclaimBatch {
		t.Fatalf("after %d insert/remove cycles: %d cells live for a list of %d, want at most %d",
			cycles, live, size, size+2*stm.ReclaimBatch)
	}
}

// TestDrainRetiresEveryCell: DrainTx visits the entries in key order,
// leaves the list empty, and once the limbo has stepped twice every cell
// is back in the arena.
func TestDrainRetiresEveryCell(t *testing.T) {
	th := stm.New().NewThread()
	ar := arena.New()
	l := New(ar, new(stm.Word))
	run(th, func(tx *stm.Tx) {
		for _, k := range []uint64{7, 3, 5} {
			l.InsertTx(tx, k, 10*k)
		}
	})
	var seen []uint64
	run(th, func(tx *stm.Tx) {
		seen = seen[:0]
		l.DrainTx(tx, func(k, v uint64) {
			if v != 10*k {
				t.Errorf("key %d: value %d", k, v)
			}
			seen = append(seen, k)
		})
	})
	if fmt.Sprint(seen) != "[3 5 7]" {
		t.Fatalf("drain visited %v, want [3 5 7]", seen)
	}
	var size int
	run(th, func(tx *stm.Tx) { size = l.LenTx(tx) })
	th.Reclaim()
	th.Reclaim()
	if live := ar.Live(); size != 0 || live != 0 {
		t.Fatalf("after drain: %d entries, %d cells live; want 0 and 0", size, live)
	}
}

// TestRecycledCellsNeverMisread: readers walk two lists sharing one arena
// while removers retire cells and inserters take the freed ones back. A
// key of list i only ever holds val(i, key) and a walk must see its keys in
// ascending order, so a reader that saw anything else read a cell that was
// freed and reused — possibly in the other list — under it. Writers step
// their limbo after every operation and readers yield at every entry, so a
// freed cell is reused within a few writer operations while a walk is
// still running: a limbo that freed a cell a running walk still holds
// would be seen. Every attempt, not only the committed one, reads one
// consistent snapshot (CTL with logged reads), so the check covers aborted
// attempts too.
func TestRecycledCellsNeverMisread(t *testing.T) {
	s := stm.New()
	ar := arena.New()
	lists := [2]List{New(ar, new(stm.Word)), New(ar, new(stm.Word))}
	const keys, writes = 32, 20000
	val := func(i int, k uint64) uint64 { return k<<32 | uint64(i) }
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int, th *stm.Thread) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < writes; n++ {
				i, k := rng.Intn(2), uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					run(th, func(tx *stm.Tx) { lists[i].InsertTx(tx, k, val(i, k)) })
				} else {
					run(th, func(tx *stm.Tx) { lists[i].RemoveTx(tx, k) })
				}
				th.Reclaim()
				runtime.Gosched()
			}
		}(g, s.NewThread())
		readers.Add(1)
		go func(g int, th *stm.Thread) {
			defer readers.Done()
			for n := 0; !stop.Load(); n++ {
				i := n % 2
				var err error
				run(th, func(tx *stm.Tx) {
					next := uint64(0)
					lists[i].EachTx(tx, func(k, v uint64) {
						for y := 0; y < 4; y++ {
							runtime.Gosched()
						}
						switch {
						case err != nil:
						case k < next:
							err = fmt.Errorf("list %d: key %d after key %d", i, k, next-1)
						case v != val(i, k):
							err = fmt.Errorf("list %d: key %d read value %#x, want %#x", i, k, v, val(i, k))
						}
						next = k + 1
					})
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g, s.NewThread())
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ar.Reuses() == 0 {
		t.Fatal("no freed cell was reused: the stress did not recycle")
	}
}
