package txmap_test

import (
	"sync"
	"testing"

	"repro/internal/avltree"
	"repro/internal/rbtree"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// TestFramesUnderConcurrentFirstUse: threads registered one after another
// make their first call on a tree at the same time, so the frame cache grows
// (copy-on-write) while other threads read it. Every thread's operations
// must land on its own frame: each inserts, reads back, moves and scans its
// own key stripe, and the stripes must come out exactly.
func TestFramesUnderConcurrentFirstUse(t *testing.T) {
	const threads, perThread = 24, 32
	for _, mk := range []func(*stm.STM) trees.Map{
		func(s *stm.STM) trees.Map { return rbtree.New(s) },
		func(s *stm.STM) trees.Map { return avltree.New(s) },
		func(s *stm.STM) trees.Map { return sftree.New(s) },
	} {
		s := stm.New()
		m := mk(s)
		var wg sync.WaitGroup
		for g := 0; g < threads; g++ {
			th := s.NewThread()
			wg.Add(1)
			go func(base uint64) {
				defer wg.Done()
				for k := base; k < base+perThread; k++ {
					if !m.Insert(th, 2*k, k) {
						t.Errorf("Insert(%d) failed", 2*k)
					}
					if v, ok := m.Get(th, 2*k); !ok || v != k {
						t.Errorf("Get(%d) = (%d,%t), want %d", 2*k, v, ok, k)
					}
					if !m.Move(th, 2*k, 2*k+1) {
						t.Errorf("Move(%d, %d) failed", 2*k, 2*k+1)
					}
				}
				n := 0
				m.Range(th, 2*base, 2*(base+perThread)-1, func(k, v uint64) bool {
					if k%2 != 1 || v != k/2 {
						t.Errorf("Range saw (%d, %d)", k, v)
					}
					n++
					return true
				})
				if n != perThread {
					t.Errorf("Range over a stripe saw %d keys, want %d", n, perThread)
				}
			}(uint64(g * perThread))
		}
		wg.Wait()
		if got := m.Size(s.NewThread()); got != threads*perThread {
			t.Fatalf("%T: size %d, want %d", m, got, threads*perThread)
		}
	}
}
