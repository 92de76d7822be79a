package forest

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sftree"
	"repro/internal/trees"
)

// fillRandom builds an 8-shard optimized forest without maintenance
// workers and inserts 0..n-1 in a seeded random order.
func fillRandom(t testing.TB, n int) *Forest {
	t.Helper()
	f := New(trees.SFOpt, WithShards(8), WithoutMaintenance())
	h := f.NewHandle()
	for _, k := range rand.New(rand.NewSource(47)).Perm(n) {
		if !h.Insert(uint64(k), uint64(k)) {
			t.Fatalf("insert of fresh key %d failed", k)
		}
	}
	return f
}

// TestQuiesceShardsInParallel: Forest.Quiesce settles its shards on
// several goroutines at once, and each shard ends exactly as a Quiesce of
// it alone leaves it — same height, size and rotation count as its twin
// in a forest quiesced one shard at a time — with its invariants holding
// and no node beyond the reachable ones left in its arena. Run at
// -cpu 2,8 (make race) the shards really do overlap.
func TestQuiesceShardsInParallel(t *testing.T) {
	const n = 1 << 14
	par, seq := fillRandom(t, n), fillRandom(t, n)
	par.Quiesce(1 << 20)
	for _, m := range seq.maps {
		trees.Quiesce(m, 1<<20)
	}
	th := par.stm.NewThread()
	sth := seq.stm.NewThread()
	for i := range par.maps {
		p, s := par.maps[i].(*sftree.Tree), seq.maps[i].(*sftree.Tree)
		if ph, sh := p.Height(), s.Height(); ph != sh {
			t.Errorf("shard %d: height %d, %d quiesced alone", i, ph, sh)
		}
		size := p.Size(th)
		if ss := s.Size(sth); size != ss {
			t.Errorf("shard %d: size %d, %d quiesced alone", i, size, ss)
		}
		if pr, sr := p.Stats().Rotations, s.Stats().Rotations; pr != sr {
			t.Errorf("shard %d: %d rotations, %d quiesced alone", i, pr, sr)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
		if live := p.Arena().Live(); live != uint64(size+1) {
			t.Errorf("shard %d: arena holds %d nodes, %d keys and the root", i, live, size)
		}
	}
}

// TestQuiesceShardsInParallelBesideWriters: Forest.Quiesce, called again
// and again while two handles delete prefilled keys and insert fresh ones,
// loses no update, and once the writers stop a last Quiesce leaves every
// shard valid and garbage-free.
func TestQuiesceShardsInParallelBesideWriters(t *testing.T) {
	const n = 1 << 12
	f := fillRandom(t, n)
	// Writer g deletes the prefilled keys i ≡ g (mod 4) and inserts
	// n + 2i + g.
	var wg sync.WaitGroup
	var done atomic.Int32
	for g := range 2 {
		h := f.NewHandle()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer done.Add(1)
			for i := range n {
				if i%4 == g && !h.Delete(uint64(i)) {
					t.Errorf("Delete(%d) of a prefilled key failed", i)
					return
				}
				if k := uint64(n + 2*i + g); !h.Insert(k, k) {
					t.Errorf("insert of fresh key %d failed", k)
					return
				}
			}
		}()
	}
	for quiesces := 0; done.Load() < 2 || quiesces == 0; quiesces++ {
		f.Quiesce(64)
	}
	wg.Wait()
	f.Quiesce(1 << 20)

	h := f.NewHandle()
	want := 0
	for k := range uint64(3 * n) {
		present := k >= n || k%4 > 1
		if present {
			want++
		}
		if v, ok := h.Get(k); ok != present || ok && v != k {
			t.Fatalf("Get(%d) = (%d, %v), want present %v", k, v, ok, present)
		}
	}
	if got := h.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for i, m := range f.maps {
		tr := m.(*sftree.Tree)
		if err := tr.CheckInvariants(); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
		if live, reachable := tr.Arena().Live(), uint64(1+tr.PhysicalSize()); live != reachable {
			t.Errorf("shard %d: arena holds %d nodes, %d reachable", i, live, reachable)
		}
	}
}

// BenchmarkForestQuiesceS8 times Forest.Quiesce alone on a freshly
// filled 8-shard forest of 2¹⁷ keys inserted in random order (the fill runs
// with the timer stopped): the maintenance layer's share of a sharded
// tree's setup. passes/op is the walks per shard.
func BenchmarkForestQuiesceS8(b *testing.B) {
	const n = 1 << 17
	var passes uint64
	for range b.N {
		b.StopTimer()
		f := fillRandom(b, n)
		b.StartTimer()
		f.Quiesce(1 << 20)
		b.StopTimer()
		passes += f.MaintenanceStats().Passes
	}
	b.ReportMetric(float64(passes)/float64(8*b.N), "passes/op")
}
