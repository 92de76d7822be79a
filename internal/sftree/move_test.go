package sftree

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stm"
)

// TestMoveLeaksNoNodes: two threads shuffle four values among eight hot
// keys with Move while the sweep unlinks the vacated sources, so most
// moves link a fresh destination node and many attempts abort after
// linking it. Once the sweep has quiesced, the arena must hold exactly the
// reachable nodes (the root sentinel included): a Quiesce that converged
// with every thread idle has emptied the maintenance limbo, so any surplus is a
// node an aborted attempt took and nobody freed.
func TestMoveLeaksNoNodes(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2) // the movers must overlap to conflict
		defer runtime.GOMAXPROCS(prev)
	}
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New()
			tr := New(s, WithVariant(v))
			setup := s.NewThread()
			for k := uint64(0); k < 8; k += 2 {
				tr.Insert(setup, k, k)
			}
			drv := NewDriver(1, tr)
			ths := []*stm.Thread{s.NewThread(), s.NewThread()}
			var wg sync.WaitGroup
			for g, th := range ths {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(31 + g)))
					for i := 0; i < 100000; i++ {
						tr.Move(th, uint64(rng.Intn(8)), uint64(rng.Intn(8)))
					}
				}()
			}
			wg.Wait()
			drv.Close()
			if !tr.Quiesce(1000) {
				t.Fatal("Quiesce did not converge with every thread idle")
			}
			aborts := ths[0].Stats().Aborts + ths[1].Stats().Aborts
			live, reachable := tr.Arena().Live(), uint64(1+tr.PhysicalSize())
			t.Logf("%d aborted move attempts; arena live %d, reachable %d", aborts, live, reachable)
			if live != reachable {
				t.Fatalf("arena holds %d nodes, %d reachable: %d leaked", live, reachable, live-reachable)
			}
			if got := tr.Size(setup); got != 4 {
				t.Fatalf("%d values after the moves, want 4", got)
			}
		})
	}
}
