package sftree

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// TestMaintLoopDutyShare: under sustained churn — sweep work always
// pending — the tree's own maintenance loop works at most its duty
// share of the wall clock (1/(1+maintRest) = ¼; the gate leaves room for
// timer slack), where it used to stay hot for as long as there was work.
func TestMaintLoopDutyShare(t *testing.T) {
	const keyRange = 1 << 12
	s := stm.New()
	tr := New(s)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := s.NewThread()
		rng := uint64(1)
		for !stop.Load() {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if k := rng % keyRange; rng>>32&1 == 0 {
				tr.Insert(th, k, k)
			} else {
				tr.Delete(th, k)
			}
			// One writer that yields: the share is of the wall clock, and a
			// loop starved of the CPU (one traversal yield can cost it a
			// whole time slice) would make a single round outlast the test.
			runtime.Gosched()
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the churn build a backlog first
	before := tr.Stats()
	t0 := time.Now()
	tr.Start()
	time.Sleep(400 * time.Millisecond)
	tr.Stop()
	wall := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	after := tr.Stats()

	busy := time.Duration(after.BusyNanos - before.BusyNanos)
	work := after.Rotations + after.Removals - before.Rotations - before.Removals
	t.Logf("busy %v of %v (%.2f), %d rotations+removals, %d passes", busy, wall, float64(busy)/float64(wall), work, after.Passes-before.Passes)
	if work == 0 {
		t.Fatal("maintenance did no structural work under churn: the budget starved it")
	}
	if float64(busy) > 0.4*float64(wall) {
		t.Fatalf("maintenance loop busy %v of %v, over 0.4 of the wall clock", busy, wall)
	}
}

// TestStopCutsBudgetRest: Stop must not wait out a budget rest. The first
// round over a 2¹⁶-key tree nobody has balanced yet is long (d) and its
// rest 3d; a Stop issued as that round ends has to return well inside it.
func TestStopCutsBudgetRest(t *testing.T) {
	const n = 1 << 16
	s := stm.New()
	tr := New(s)
	th := s.NewThread()
	for i := uint64(0); i < n; i++ {
		k := i * 40503 & (n - 1) // odd multiplier: a permutation of [0, n)
		tr.Insert(th, k, k)
	}
	tr.Start()
	for tr.Stats().BusyNanos == 0 { // set as the first round ends
		time.Sleep(100 * time.Microsecond)
	}
	d := time.Duration(tr.Stats().BusyNanos)
	t0 := time.Now()
	tr.Stop()
	took := time.Since(t0)
	t.Logf("first round %v (rest %v); Stop returned in %v", d, maintRest*d, took)
	if took > d {
		t.Fatalf("Stop took %v with the loop in a %v budget rest: the rest was not cut short", took, maintRest*d)
	}
}
