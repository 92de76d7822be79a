package sftree

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// TestDriverDutyShare: under sustained churn on every tree — sweep work
// always pending — one worker over several trees works at most its duty
// share of the wall clock (1/(1+maintRest) = ¼; the gate leaves room for
// timer slack), where a productive sweep used to re-arm after sweepGapMin
// and keep the worker sweeping continuously.
func TestDriverDutyShare(t *testing.T) {
	const keyRange = 1 << 12
	s := stm.New()
	ts := []*Tree{New(s), New(s, WithVariant(Optimized)), New(s), New(s, WithVariant(Optimized))}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := s.NewThread()
		rng := rand.New(rand.NewSource(1))
		for !stop.Load() {
			tr, k := ts[rng.Intn(len(ts))], uint64(rng.Intn(keyRange))
			if rng.Intn(2) == 0 {
				tr.Insert(th, k, k)
			} else {
				tr.Delete(th, k)
			}
			// One writer that yields: the share is of the wall clock, and a
			// worker starved of the CPU (one traversal yield can cost it a
			// whole time slice) would make one sweep outlast the test.
			runtime.Gosched()
		}
	}()
	work := func() (n uint64) {
		for _, tr := range ts {
			st := tr.Stats()
			n += st.Rotations + st.Removals
		}
		return n
	}
	time.Sleep(20 * time.Millisecond) // let the churn build a backlog first
	w0 := work()
	t0 := time.Now()
	drv := NewDriver(1, ts...)
	time.Sleep(400 * time.Millisecond)
	drv.Close()
	wall := time.Since(t0)
	stop.Store(true)
	wg.Wait()

	st := drv.Stats()
	busy := time.Duration(st.BusyNanos)
	t.Logf("busy %v of %v (%.2f), %d rotations+removals, %d sweeps", busy, wall, float64(busy)/float64(wall), work()-w0, st.Sweeps)
	if work() == w0 {
		t.Fatal("maintenance did no structural work under churn: the budget starved it")
	}
	if float64(busy) > 0.4*float64(wall) {
		t.Fatalf("worker busy %v of %v, over 0.4 of the wall clock", busy, wall)
	}
}

// TestDriverCloseCutsBudgetRest: Close must not wait out a worker's budget
// rest. The first sweep of a 2¹⁶-key tree nobody has balanced yet is long
// (d) and its rest 3d; a Close issued as that sweep ends has to return
// well inside it.
func TestDriverCloseCutsBudgetRest(t *testing.T) {
	const n = 1 << 16
	s := stm.New()
	tr := New(s)
	th := s.NewThread()
	for i := uint64(0); i < n; i++ {
		k := i * 40503 & (n - 1) // odd multiplier: a permutation of [0, n)
		tr.Insert(th, k, k)
	}
	drv := NewDriver(1, tr)
	for drv.Stats().BusyNanos == 0 { // set as the first sweep ends
		time.Sleep(100 * time.Microsecond)
	}
	d := time.Duration(drv.Stats().BusyNanos)
	t0 := time.Now()
	drv.Close()
	took := time.Since(t0)
	t.Logf("first sweep %v (rest %v); Close returned in %v", d, maintRest*d, took)
	if took > d {
		t.Fatalf("Close took %v with the worker in a %v budget rest: the rest was not cut short", took, maintRest*d)
	}
}

// TestDriverCloseIdempotent: a driver sweeps its tree while clients
// update it, a second Close is a no-op, and a Pause bracket after Close
// restarts nothing.
func TestDriverCloseIdempotent(t *testing.T) {
	for _, v := range variants() {
		tr, th := newTree(t, v)
		drv := NewDriver(1, tr)
		for k := uint64(0); k < 512; k++ {
			tr.Insert(th, k, k)
		}
		for k := uint64(0); k < 512; k += 3 {
			tr.Delete(th, k)
		}
		for drv.Stats().Sweeps == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		drv.Close()
		drv.Close()
		drv.Pause()()
		swept := drv.Stats().Sweeps
		if swept == 0 || tr.Stats().Passes != swept {
			t.Fatalf("[%v] %d passes, driver %+v", v, tr.Stats().Passes, drv.Stats())
		}
		tr.Quiesce(2000)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		time.Sleep(2 * sweepGapMin)
		if st := drv.Stats(); st.Sweeps != swept || st.Workers != 1 {
			t.Fatalf("[%v] driver swept after Close: %d sweeps at Close, %+v", v, swept, st)
		}
	}
}

// TestDriverPauseCloseStorm: goroutines bracketing Pause/resume and
// reading stats while a Close lands in the middle must neither deadlock
// nor panic, and no resume may restart the closed driver. Run under -race
// it also checks the lifecycle fields.
func TestDriverPauseCloseStorm(t *testing.T) {
	s := stm.New()
	ts := []*Tree{New(s), New(s)}
	th := s.NewThread()
	for i := uint64(0); i < 512; i++ {
		ts[i%2].Insert(th, i, i)
	}
	drv := NewDriver(2, ts...)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				switch {
				case seed == 0 && i == 25:
					drv.Close()
				case rng.Intn(2) == 0:
					resume := drv.Pause()
					ts[rng.Intn(2)].Quiesce(4)
					resume()
				default:
					drv.Stats()
				}
			}
		}(int64(g))
	}
	wg.Wait()
	drv.Close()
	swept := drv.Stats().Sweeps
	time.Sleep(2 * sweepGapMin)
	if st := drv.Stats(); st.Sweeps != swept {
		t.Fatalf("driver swept after Close: %d -> %d sweeps", swept, st.Sweeps)
	}
}

// TestDriverScanOffsetWraps: the rotating scan offset stays a valid index
// when its counter no longer fits an int (after 2³¹ scans on a 32-bit
// build), where converting before reducing produced a negative index.
func TestDriverScanOffsetWraps(t *testing.T) {
	s := stm.New()
	drv := NewDriver(1, New(s), New(s), New(s))
	drv.Close()
	before := drv.Stats().Sweeps
	for _, dt := range drv.trees {
		dt.nextSweep.Store(0) // all due
	}
	drv.rr.Store(1<<63 - 1)
	drv.scan(make(chan struct{}))
	if n := drv.Stats().Sweeps - before; n != 3 {
		t.Fatalf("one scan over 3 due trees swept %d", n)
	}
}
