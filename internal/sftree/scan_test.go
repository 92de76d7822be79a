package sftree

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// churnKeys is the size of the tree the scan and move gates and benchmarks
// run on: 2¹³ keys, every key a node, the odd ones logically deleted —
// the shape the benchmark's biased-churn tree settles into (8 171 nodes for
// 4 107 live keys after 3 s of load). Nothing maintains it, so it keeps that
// shape: a Move deletes one node logically and resurrects another.
const churnKeys = 1 << 13

func churnTree(tb testing.TB, v Variant) (*Tree, *stm.Thread) {
	tb.Helper()
	s := stm.New()
	tr := New(s, WithVariant(v))
	th := s.NewThread()
	for i := uint64(0); i < churnKeys; i++ {
		// An odd multiplier permutes [0, n): ascending inserts with nothing
		// rebalancing would build a list.
		k := i * 40503 & (churnKeys - 1)
		tr.Insert(th, k, k)
	}
	tr.Quiesce(64)
	for k := uint64(1); k < churnKeys; k += 2 {
		tr.Delete(th, k)
	}
	return tr, th
}

// xorshift is the benchmarks' and gates' key stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// pairMover moves the one live key of a random pair {2i, 2i+1} onto its
// deleted sibling, forever: every Move succeeds and the tree keeps its shape.
type pairMover struct {
	rng  xorshift
	odd  [churnKeys / 2]bool // which key of pair i is live
	move func(src, dst uint64) bool
}

func (p *pairMover) step(tb testing.TB) {
	i := p.rng.next() % (churnKeys / 2)
	src, dst := 2*i, 2*i+1
	if p.odd[i] {
		src, dst = dst, src
	}
	if !p.move(src, dst) {
		tb.Fatalf("Move(%d, %d) failed on a pair with src live and dst deleted", src, dst)
	}
	p.odd[i] = !p.odd[i]
}

var sink uint64

func BenchmarkRange100(b *testing.B) {
	tr, th := churnTree(b, Optimized)
	rng := xorshift(1)
	fn := func(k, v uint64) bool { sink += v; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.next() % (churnKeys - 100)
		tr.Range(th, lo, lo+99, fn)
	}
}

func BenchmarkMove(b *testing.B) {
	tr, th := churnTree(b, Optimized)
	p := &pairMover{rng: 1, move: func(src, dst uint64) bool { return tr.Move(th, src, dst) }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step(b)
	}
}

// TestScanMoveZeroAllocs: in steady state a Range and a Move stay off the
// allocator — the scan's buffer and both operations' transaction
// bodies belong to the thread's operation frame, the scan logs no reads, and
// the move is the frame's Mover.
func TestScanMoveZeroAllocs(t *testing.T) {
	for _, v := range []Variant{Portable, Optimized} {
		tr, th := churnTree(t, v)
		rng := xorshift(7)
		n := 0
		fn := func(k, v uint64) bool { n++; return true }
		p := &pairMover{rng: 7, move: func(src, dst uint64) bool { return tr.Move(th, src, dst) }}
		ops := map[string]func(){
			"Range": func() {
				lo := rng.next() % (churnKeys - 100)
				tr.Range(th, lo, lo+99, fn)
			},
			"RangeElastic": func() { tr.RangeElastic(th, 1000, 1099, fn) },
			"Move":         func() { p.step(t) },
		}
		for name, op := range ops {
			op() // warm up: the frame, its buffer
			if avg := testing.AllocsPerRun(100, op); avg != 0 {
				t.Errorf("%v: %s allocates %.2f times per run, want 0", v, name, avg)
			}
		}
		if n == 0 {
			t.Errorf("%v: the scans visited nothing", v)
		}
	}
}

// TestRangeReentrant: Range's callback runs after the scan committed and may
// itself scan on the same thread. The frame's buffer is out of the frame
// while it is being fed, so the nested scans must neither disturb the outer
// one nor be disturbed by it.
func TestRangeReentrant(t *testing.T) {
	for _, v := range []Variant{Portable, Optimized} {
		tr, th := churnTree(t, v)
		var outer, inner []uint64
		done := tr.Range(th, 100, 299, func(k, _ uint64) bool {
			outer = append(outer, k)
			if k == 200 {
				tr.Range(th, 1000, 1099, func(k, _ uint64) bool {
					inner = append(inner, k)
					if k == 1050 && tr.Size(th) != churnKeys/2 {
						t.Errorf("%v: Size from a nested callback is wrong", v)
					}
					return true
				})
				if got := len(tr.Keys(th)); got != churnKeys/2 {
					t.Errorf("%v: Keys from a callback returned %d keys, want %d", v, got, churnKeys/2)
				}
			}
			return true
		})
		if !done {
			t.Errorf("%v: outer scan reported an early stop", v)
		}
		check := func(name string, got []uint64, lo uint64, n int) {
			if len(got) != n {
				t.Errorf("%v: %s scan visited %d keys, want %d", v, name, len(got), n)
				return
			}
			for i, k := range got {
				if want := lo + 2*uint64(i); k != want {
					t.Errorf("%v: %s scan element %d is key %d, want %d", v, name, i, k, want)
					return
				}
			}
		}
		check("outer", outer, 100, 100)
		check("inner", inner, 1000, 50)
		// The frame got a buffer back: the next scan allocates nothing.
		fn := func(_, _ uint64) bool { return true }
		if avg := testing.AllocsPerRun(20, func() { tr.Range(th, 100, 299, fn) }); avg != 0 {
			t.Errorf("%v: Range after a re-entrant one allocates %.2f times, want 0", v, avg)
		}
	}
}

// TestRangeSumUnderMoves is the snapshot property the unlogged scan has to
// keep: writers Move values between the keys of a fixed interval, beside a
// running maintenance driver, so the interval's keys change constantly while
// the sum of its values never does — and every Range result must add up to
// exactly that sum. A scan mixing two tree states sees a moved value twice
// or not at all.
func TestRangeSumUnderMoves(t *testing.T) {
	const (
		lo, hi  = 1000, 1255 // the interval: 128 live keys of 256
		writers = 2
		scans   = 150
	)
	for _, v := range []Variant{Portable, Optimized} {
		tr, th := churnTree(t, v)
		var want uint64
		tr.Range(th, lo, hi, func(_, val uint64) bool { want += val; return true })
		drv := NewDriver(1, tr)

		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wth := tr.STM().NewThread()
				rng := xorshift(w + 1)
				for !stop.Load() {
					// Any src, any dst inside the interval: most attempts
					// fail (src absent or dst present), the rest move.
					src := lo + rng.next()%(hi-lo+1)
					dst := lo + rng.next()%(hi-lo+1)
					tr.Move(wth, src, dst)
					// Not a storm: the property is the snapshot, and two
					// unthrottled writers inside the scanned interval starve
					// the scanner for minutes under the race detector.
					runtime.Gosched()
				}
			}(w)
		}
		for i := 0; i < scans; i++ {
			var sum uint64
			n := 0
			tr.Range(th, lo, hi, func(_, val uint64) bool { sum += val; n++; return true })
			if sum != want || n != (hi-lo+1)/2 {
				t.Errorf("%v: scan %d saw %d keys summing to %d, want %d keys and %d", v, i, n, sum, (hi-lo+1)/2, want)
				break
			}
		}
		stop.Store(true)
		wg.Wait()
		drv.Close()
		st := tr.STM().TotalStats()
		t.Logf("%v: %d scans, %d lost their unlogged attempt, %d validation aborts in all",
			v, scans, st.AbortCauses[stm.AbortUnlogged], st.AbortCauses[stm.AbortValidation])
	}
}
