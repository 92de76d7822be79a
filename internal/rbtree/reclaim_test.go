package rbtree

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// TestChurnRecyclesNodes: a delete retires the node it unlinks and the
// thread's limbo gives it back to the arena, so churn on one key keeps the
// arena at the tree's size plus at most two limbo generations.
func TestChurnRecyclesNodes(t *testing.T) {
	tr, th := newTree()
	const cycles = 10000
	for i := uint64(0); i < cycles; i++ {
		if !tr.Insert(th, 5, i) || !tr.Delete(th, 5) {
			t.Fatalf("cycle %d: insert/delete of key 5 failed", i)
		}
	}
	size := uint64(tr.Size(th))
	if extra := tr.Arena().Live() - size; extra > 2*stm.ReclaimBatch {
		t.Fatalf("after %d insert/delete cycles: %d nodes live beyond the %d linked, want at most %d",
			cycles, extra, size, 2*stm.ReclaimBatch)
	}
}

// TestRecycledNodesNeverMisread: readers traverse while deleters retire
// nodes and inserters take the freed ones back. Every key only ever holds
// val(key) and an in-order scan must see its keys ascending, so a reader
// that saw anything else read a node that was freed and reused under it.
// Writers step their limbo after every operation and readers yield at
// every element, so a freed node is reused within a few writer operations
// while a scan is still running: a limbo that freed a node a running scan
// still holds would be seen. Every attempt, not only the committed one,
// reads one consistent snapshot (CTL with logged reads), so the check
// covers aborted attempts too.
func TestRecycledNodesNeverMisread(t *testing.T) {
	s := stm.New()
	tr := New(s)
	const keys, writes = 64, 20000
	val := func(k uint64) uint64 { return k<<32 | 0xbeef }
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int, th *stm.Thread) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < writes; i++ {
				k := uint64(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					tr.Insert(th, k, val(k))
				} else {
					tr.Delete(th, k)
				}
				th.Reclaim()
				runtime.Gosched()
			}
		}(g, s.NewThread())
		readers.Add(1)
		go func(g int, th *stm.Thread) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for !stop.Load() {
				var err error
				if k := uint64(rng.Intn(keys)); true {
					if v, ok := tr.Get(th, k); ok && v != val(k) {
						err = fmt.Errorf("Get(%d) = %#x, want %#x", k, v, val(k))
					}
				}
				th.Atomic(func(tx *stm.Tx) {
					next := uint64(0)
					tr.RangeTx(tx, 0, keys, func(k, v uint64) bool {
						for y := 0; y < 4; y++ {
							runtime.Gosched()
						}
						switch {
						case err != nil:
						case k < next:
							err = fmt.Errorf("scan: key %d after key %d", k, next-1)
						case v != val(k):
							err = fmt.Errorf("scan: key %d read value %#x, want %#x", k, v, val(k))
						}
						next = k + 1
						return true
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
	if tr.Arena().Reuses() == 0 {
		t.Fatal("no freed node was reused: the stress did not recycle")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
