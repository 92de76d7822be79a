package forest

import (
	"testing"

	"repro/internal/trees"
)

// churnKeys and churnForest mirror sftree's scan fixtures: 2¹³ keys, every
// key a node, the odd ones logically deleted, nothing maintaining the trees —
// the shape the benchmark's biased-churn tree settles into, spread over the
// given number of shards.
const churnKeys = 1 << 13

func churnForest(tb testing.TB, shards int) *Handle {
	tb.Helper()
	f := New(trees.SFOpt, WithShards(shards), WithoutMaintenance())
	tb.Cleanup(f.Close)
	h := f.NewHandle()
	for i := uint64(0); i < churnKeys; i++ {
		k := i * 40503 & (churnKeys - 1) // a permutation: no sorted-insert list
		h.Insert(k, k)
	}
	f.Quiesce(64)
	for k := uint64(1); k < churnKeys; k += 2 {
		h.Delete(k)
	}
	return h
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// pairMover moves the live key of a random pair {2i, 2i+1} onto its deleted
// sibling: every Move succeeds and the trees keep their shape. On one shard
// every such move is the same-shard composition.
type pairMover struct {
	h   *Handle
	rng xorshift
	odd [churnKeys / 2]bool // which key of pair i is live
}

func (p *pairMover) step(tb testing.TB) {
	i := p.rng.next() % (churnKeys / 2)
	src, dst := 2*i, 2*i+1
	if p.odd[i] {
		src, dst = dst, src
	}
	if !p.h.Move(src, dst) {
		tb.Fatalf("Move(%d, %d) failed on a pair with src live and dst deleted", src, dst)
	}
	p.odd[i] = !p.odd[i]
}

var sink uint64

func benchRange100(b *testing.B, shards int) {
	h := churnForest(b, shards)
	rng := xorshift(1)
	fn := func(k, v uint64) bool { sink += v; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.next() % (churnKeys - 100)
		h.Range(lo, lo+99, fn)
	}
}

func BenchmarkRange100(b *testing.B) {
	b.Run("s1", func(b *testing.B) { benchRange100(b, 1) })
	b.Run("s8", func(b *testing.B) { benchRange100(b, 8) })
}

// BenchmarkMove is the same-shard move (one shard); the cross-shard one is a
// 2PC transaction, see BenchmarkAtomicTransferS8.
func BenchmarkMove(b *testing.B) {
	p := &pairMover{h: churnForest(b, 1), rng: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.step(b)
	}
}

// TestRangeMoveZeroAllocs: in steady state Handle.Range — per-shard
// snapshots, merge and all — and the same-shard Move allocate nothing: the
// scan state and the Mover belong to the handle and the scans log no reads.
// (The durable same-shard Move is gated in TestDurableUpdateZeroAllocs, the
// cross-shard one in TestAtomicZeroAllocs.)
func TestRangeMoveZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		h := churnForest(t, shards)
		rng := xorshift(7)
		n := 0
		fn := func(k, v uint64) bool { n++; return true }
		scan := func() {
			lo := rng.next() % (churnKeys - 100)
			h.Range(lo, lo+99, fn)
		}
		scan() // warm up: the scan state, its per-shard buffers
		if avg := testing.AllocsPerRun(100, scan); avg != 0 {
			t.Errorf("shards=%d: Range allocates %.2f times per run, want 0", shards, avg)
		}
		if n == 0 {
			t.Errorf("shards=%d: the scans visited nothing", shards)
		}
		if shards == 1 {
			p := &pairMover{h: h, rng: 7}
			move := func() { p.step(t) }
			move()
			if avg := testing.AllocsPerRun(100, move); avg != 0 {
				t.Errorf("same-shard Move allocates %.2f times per run, want 0", avg)
			}
		}
	}
}

// TestRangeReentrant: Range's callback may scan again on the same handle —
// Range, Len and Keys all take the handle's scan state, which is therefore
// out of the handle while the outer merge is feeding from it.
func TestRangeReentrant(t *testing.T) {
	for _, shards := range []int{1, 8} {
		h := churnForest(t, shards)
		var outer, inner []uint64
		h.Range(100, 299, func(k, _ uint64) bool {
			outer = append(outer, k)
			if k == 200 {
				h.Range(1000, 1099, func(k, _ uint64) bool {
					inner = append(inner, k)
					return true
				})
				if got, l := len(h.Keys()), h.Len(); got != churnKeys/2 || l != got {
					t.Errorf("shards=%d: from a callback Keys returned %d keys and Len %d, want %d", shards, got, l, churnKeys/2)
				}
			}
			return true
		})
		check := func(name string, got []uint64, lo uint64, n int) {
			if len(got) != n {
				t.Errorf("shards=%d: %s scan visited %d keys, want %d", shards, name, len(got), n)
				return
			}
			for i, k := range got {
				if want := lo + 2*uint64(i); k != want {
					t.Errorf("shards=%d: %s scan element %d is key %d, want %d", shards, name, i, k, want)
					return
				}
			}
		}
		check("outer", outer, 100, 100)
		check("inner", inner, 1000, 50)
		// The handle got its scan state back: the next scan allocates nothing.
		fn := func(_, _ uint64) bool { return true }
		if avg := testing.AllocsPerRun(20, func() { h.Range(100, 299, fn) }); avg != 0 {
			t.Errorf("shards=%d: Range after a re-entrant one allocates %.2f times, want 0", shards, avg)
		}
	}
}
