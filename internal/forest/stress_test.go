package forest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/trees"
)

// crossShardPair returns two keys living on different shards (and, for
// convenience, a third key co-located with neither constraint).
func crossShardPair(t *testing.T, f *Forest) (a, b uint64) {
	t.Helper()
	a = 100
	for k := uint64(101); k < 100000; k++ {
		if f.ShardOf(a) != f.ShardOf(k) {
			return a, k
		}
	}
	t.Fatal("no cross-shard pair found")
	return 0, 0
}

// TestCrossShardMoveCompensationABA is the regression test for the
// value-ABA hazard of the pre-ftx cross-shard Move: the old insert-first/
// compensate protocol could, without its move claims, destroy a third
// party's independently inserted dst entry that coincidentally carried the
// moved value. Move now runs as one atomic ftx transaction, which must
// make the hazard structurally impossible — the mover never deletes dst at
// all, and a Move whose keys were raced away commits nothing — but the
// torture stays as a regression net: a buggy coordinator that published a
// partial write set or committed a stale read would surface here.
//
// The interferer cycles Delete(dst); Insert(dst, V); Get(dst)×m. Once its
// insert succeeds it is the only legitimate deleter of dst until its own
// Delete, so any vanished or foreign value observed between its Insert and
// its Delete is a spurious deletion. The srcDeleter keeps removing src so
// the mover constantly loses the race and aborts.
func TestCrossShardMoveCompensationABA(t *testing.T) {
	// WithYield forces transaction overlap even on single-core hosts, so
	// the interferer's delete+reinsert pair actually lands inside the
	// mover's insert→compensate window.
	f := New(trees.SFOpt, WithShards(4), WithoutMaintenance(), WithYield(2))
	defer f.Close()
	src, dst := crossShardPair(t, f)
	const V = 7777

	var stop atomic.Bool
	var spurious atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // interferer: owns dst between its Insert and its Delete
		defer wg.Done()
		h := f.NewHandle()
		for !stop.Load() {
			h.Delete(dst)
			if h.Insert(dst, V) {
				for j := 0; j < 8; j++ {
					if v, ok := h.Get(dst); !ok || v != V {
						spurious.Add(1)
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // srcDeleter: forces the mover into compensation
		defer wg.Done()
		h := f.NewHandle()
		for !stop.Load() {
			h.Delete(src)
		}
	}()
	wg.Add(1)
	go func() { // mover: cross-shard moves of the same value V
		defer wg.Done()
		h := f.NewHandle()
		for !stop.Load() {
			h.Insert(src, V)
			h.Move(src, dst)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if n := spurious.Load(); n != 0 {
		t.Fatalf("%d spurious deletions of a third party's dst entry", n)
	}
}

// TestCrossShardMovePingPong has several movers bouncing one token between
// two cross-shard keys while a reader continuously checks it never
// vanishes. Under the ftx-backed atomic Move the token is at exactly one
// key at every committed instant; the reader's two lookups are separate
// transactions, so it tolerates a bounded number of between-lookup hops
// before declaring the token lost.
func TestCrossShardMovePingPong(t *testing.T) {
	f := New(trees.SF, WithShards(4), WithoutMaintenance(), WithYield(2))
	defer f.Close()
	a, b := crossShardPair(t, f)
	const V = 31337

	seed := f.NewHandle()
	seed.Insert(a, V)

	var stop atomic.Bool
	var lost atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := f.NewHandle()
			for !stop.Load() {
				if !h.Move(a, b) {
					h.Move(b, a)
				}
			}
		}()
	}
	wg.Add(1)
	go func() { // reader: the token must never be absent from both keys
		defer wg.Done()
		h := f.NewHandle()
		for !stop.Load() {
			misses := 0
			for misses < 50 {
				if h.Contains(a) || h.Contains(b) {
					misses = -1
					break
				}
				misses++
			}
			if misses >= 50 {
				lost.Add(1)
				return
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if lost.Load() != 0 {
		t.Fatal("token observed absent from both keys (value lost)")
	}
	// After all movers stop the token settles at exactly one key: the
	// ftx-backed Move is atomic, so the old contested-compensation
	// "present at both" leftover can no longer occur.
	h := f.NewHandle()
	ca, cb := h.Contains(a), h.Contains(b)
	if !ca && !cb {
		t.Fatal("token lost at quiescence")
	}
	if ca && cb {
		t.Fatal("token present at both keys at quiescence: a Move published a partial write set")
	}
}

// TestCloseStatsRace hammers the statistics accessors concurrently with
// (repeated) Close on a maintained multi-shard forest: the maint flag must
// not be a data race (run under -race), double Close must be a no-op, and
// once everything returns, maintenance must genuinely be stopped.
func TestCloseStatsRace(t *testing.T) {
	f := New(trees.SFOpt, WithShards(4))
	h := f.NewHandle()
	for k := uint64(0); k < 512; k++ {
		h.Insert(k, k)
		if k%2 == 0 {
			h.Delete(k)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				f.Stats()
				f.MaintenanceStats()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Close() // racing and repeated Close must be safe no-ops
		}()
	}
	wg.Wait()
	f.Close()
	// Maintenance must now be stopped for good: no pass may complete after
	// the settle point even though the accessors above raced the Close.
	passes := f.MaintenanceStats().Passes
	time.Sleep(50 * time.Millisecond)
	if after := f.MaintenanceStats().Passes; after != passes {
		t.Fatalf("maintenance still running after Close (%d -> %d passes)", passes, after)
	}
}

// TestUpdateContendedCounters runs composed Update transactions on a few hot
// keys: per-key counters incremented from many goroutines must total
// exactly, so every read-modify-write either committed whole or retried.
func TestUpdateContendedCounters(t *testing.T) {
	const (
		workers = 6
		keys    = 4
		incs    = 2000
	)
	f := New(trees.SFOpt)
	defer f.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := f.NewHandle()
			for i := 0; i < incs; i++ {
				k := uint64(i % keys)
				h.Update(func(op *Op) {
					v, _ := op.Get(k)
					op.Delete(k)
					op.Insert(k, v+1)
				})
			}
		}()
	}
	wg.Wait()
	h := f.NewHandle()
	var total uint64
	for k := uint64(0); k < keys; k++ {
		v, ok := h.Get(k)
		if !ok {
			t.Fatalf("counter %d missing", k)
		}
		total += v
	}
	if want := uint64(workers * incs); total != want {
		t.Fatalf("counters total %d, want %d", total, want)
	}
}

// TestDurableStormShutdown is the shutdown-safety torture of the durable
// path: a storm of single-key and Update operations runs against a durable
// forest while another goroutine quiesces, checkpoints, and finally closes
// the WAL and the forest mid-storm. The invariant under test is liveness:
// every storm op must complete (ops on an already-closed forest still run;
// their WAL appends become no-ops). Run under -race: the Makefile's race
// target covers this package.
func TestDurableStormShutdown(t *testing.T) {
	for _, kind := range trees.Kinds() {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				f := New(kind, WithShards(shards))
				dl, _, err := durable.Open(t.TempDir(), shards, durable.Options{})
				if err != nil {
					t.Fatal(err)
				}
				f.AttachWAL(dl)

				const workers = 6
				const opsEach = 400
				var done atomic.Int64
				var wg sync.WaitGroup
				start := make(chan struct{})
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						h := f.NewHandle()
						base := uint64(w * 1000)
						<-start
						for i := 0; i < opsEach; i++ {
							k := base + uint64(i%97)
							switch i % 5 {
							case 0:
								h.Insert(k, uint64(i))
							case 1:
								h.Get(k)
							case 2:
								h.Update(func(op *Op) {
									if v, ok := op.Get(k); ok {
										op.Delete(k)
										op.Insert(k, v+1)
									}
								})
							case 3:
								h.Contains(k)
							default:
								h.Delete(k)
							}
							done.Add(1)
						}
					}(w)
				}
				wg.Add(1)
				go func() { // chaos: quiesce + checkpoint racing the storm, then shutdown
					defer wg.Done()
					<-start
					for i := 0; i < 3; i++ {
						f.Quiesce(2)
						if err := dl.Checkpoint(f); err != nil {
							t.Errorf("Checkpoint: %v", err)
						}
					}
					dl.Close()
					f.Close()
				}()
				close(start)
				wg.Wait()
				if got := done.Load(); got != workers*opsEach {
					t.Fatalf("%d/%d storm ops completed: an operation hung in shutdown", got, workers*opsEach)
				}
				f.Close()
			})
		}
	}
}
