package forest

import (
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/trees"
)

// atomicFixture is a quiet forest (no maintenance pool, no WAL, no tracer)
// prefilled with [0, n), n a power of two, and balanced once, plus hoisted
// transaction bodies acting on ks: a closure literal built per call is an
// allocation of the caller, not of Atomic.
type atomicFixture struct {
	f  *Forest
	h  *Handle
	ks [4]uint64

	transfer func(*ftx.Tx) error // 4 reads, 2 writes
	audit    func(*ftx.Tx) error // 4 reads
}

func newAtomicFixture(tb testing.TB, shards, n int) *atomicFixture {
	tb.Helper()
	x := &atomicFixture{f: New(trees.SFOpt, WithShards(shards), WithoutMaintenance())}
	tb.Cleanup(x.f.Close)
	x.h = x.f.NewHandle()
	for i := 0; i < n; i++ {
		// An odd multiplier permutes [0, n): ascending inserts with nothing
		// rebalancing would build a list.
		x.h.Insert(uint64(i*40503&(n-1)), 1000)
	}
	x.f.Quiesce(64)
	x.transfer = func(tx *ftx.Tx) error {
		var v [4]uint64
		for i, k := range x.ks {
			v[i], _ = tx.Get(k)
		}
		tx.Put(x.ks[0], v[0]-1)
		tx.Put(x.ks[3], v[3]+1)
		return nil
	}
	x.audit = func(tx *ftx.Tx) error {
		for _, k := range x.ks {
			tx.Get(k)
		}
		return nil
	}
	return x
}

// spread points ks at four keys on four different shards (needs ≥ 4 shards).
func (x *atomicFixture) spread(tb testing.TB) {
	tb.Helper()
	n, used := 0, map[int]bool{}
	for k := uint64(0); n < len(x.ks); k++ {
		if k > 1<<12 {
			tb.Fatal("no four keys on four shards")
		}
		if si := x.f.ShardOf(k); !used[si] {
			used[si] = true
			x.ks[n] = k
			n++
		}
	}
}

// colocate points ks at four keys of one shard.
func (x *atomicFixture) colocate(tb testing.TB) {
	tb.Helper()
	n := 0
	for k := uint64(0); n < len(x.ks); k++ {
		if k > 1<<12 {
			tb.Fatal("no four co-located keys")
		}
		if x.f.ShardOf(0) == x.f.ShardOf(k) {
			x.ks[n] = k
			n++
		}
	}
}

// The pooled-context contract of internal/ftx: once a handle's coordinator
// has grown to a transaction's size, running it again allocates nothing —
// whichever shards it touches, with or without writes, and for the
// cross-shard Move. AllocsPerRun counts process-wide mallocs, so nothing runs in the
// background.
func TestAtomicZeroAllocs(t *testing.T) {
	gate := func(t *testing.T, what string, op func()) {
		t.Helper()
		op() // warm up: coordinator, log growth
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Fatalf("%s allocates %.2f times per run, want 0", what, avg)
		}
	}
	t.Run("transfer/cross-shard", func(t *testing.T) {
		x := newAtomicFixture(t, 8, 1<<10)
		x.spread(t)
		before := x.h.XactStats()
		gate(t, "4-read/2-write cross-shard transfer", func() { x.h.Atomic(x.transfer) })
		if st := x.h.XactStats(); st.Fallbacks != before.Fallbacks || st.ReadOnly != before.ReadOnly {
			t.Fatalf("stats %+v: the transfers were not counted as writing cross-shard commits", st)
		}
	})
	t.Run("audit/read-only", func(t *testing.T) {
		x := newAtomicFixture(t, 8, 1<<10)
		x.spread(t)
		gate(t, "4-read cross-shard audit", func() { x.h.Atomic(x.audit) })
		if st := x.h.XactStats(); st.ReadOnly != st.Commits {
			t.Fatalf("stats %+v: the audits were not counted as read-only cross-shard commits", st)
		}
		// One commit transaction per audit on the handle's one thread.
		c0 := x.h.Stats().Commits
		x.h.Atomic(x.audit)
		if c := x.h.Stats().Commits - c0; c != 1 {
			t.Fatalf("an 8-shard audit committed %d STM transactions, want 1", c)
		}
	})
	t.Run("transfer/single-shard", func(t *testing.T) {
		x := newAtomicFixture(t, 8, 1<<10)
		x.colocate(t)
		gate(t, "single-shard fallback transfer", func() { x.h.Atomic(x.transfer) })
		if st := x.h.XactStats(); st.Fallbacks != st.Commits {
			t.Fatalf("stats %+v: the transfers were not counted as single-shard commits", st)
		}
	})
	t.Run("move/cross-shard", func(t *testing.T) {
		x := newAtomicFixture(t, 8, 1<<10)
		x.spread(t)
		src, dst := x.ks[0], uint64(1<<20)
		for x.f.ShardOf(src) == x.f.ShardOf(dst) {
			dst++
		}
		gate(t, "cross-shard Move", func() {
			if !x.h.Move(src, dst) || !x.h.Move(dst, src) {
				t.Fatal("Move failed")
			}
		})
	})
	t.Run("transfer/cross-shard/wal", func(t *testing.T) {
		x := newAtomicFixture(t, 8, 1<<10)
		x.spread(t)
		st := x.attachQuietWAL(t)
		before := st().Records
		// x.h has no coordinator yet, so its first Atomic wires the WAL in.
		gate(t, "WAL-attached cross-shard transfer", func() { x.h.Atomic(x.transfer) })
		if n := st().Records - before; n < 200 {
			t.Fatalf("%d records logged, want one per transfer", n)
		}
	})
}

// attachQuietWAL attaches a write-ahead log whose background loops stay out
// of an AllocsPerRun window — a committer that will not tick, no periodic
// checkpoints — and returns its statistics accessor. Call before the
// handle's first Atomic (the coordinator picks the WAL up when it is built).
func (x *atomicFixture) attachQuietWAL(tb testing.TB) func() durable.Stats {
	tb.Helper()
	l, _, err := durable.Open(tb.TempDir(), x.f.Shards(), durable.Options{GroupCommit: time.Hour, CheckpointEvery: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	x.f.AttachWAL(l)
	return l.Stats
}

// TestDurableUpdateZeroAllocs: a durable single-key update or same-shard
// Move — transaction body, then WAL record — allocates nothing
// once the handle and the log's buffers have seen the key. (A fresh key may
// grow the arena; that is the store growing, not the path.)
func TestDurableUpdateZeroAllocs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		x := newAtomicFixture(t, shards, 1<<10)
		st := x.attachQuietWAL(t)
		const k = 1 << 20
		op := func() {
			if !x.h.Insert(k, 7) || !x.h.Delete(k) {
				t.Fatal("Insert/Delete of a private key failed")
			}
		}
		op()
		before := st().Records
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Fatalf("shards=%d: durable Insert+Delete allocates %.2f times per run, want 0", shards, avg)
		}
		if n := st().Records - before; n < 400 {
			t.Fatalf("shards=%d: %d records logged, want two per run", shards, n)
		}

		// The same-shard Move and its WAL record: there and back between two
		// private keys of one shard.
		k2 := uint64(k + 1)
		for x.f.ShardOf(k) != x.f.ShardOf(k2) {
			k2++
		}
		x.h.Insert(k, 7)
		move := func() {
			if !x.h.Move(k, k2) || !x.h.Move(k2, k) {
				t.Fatal("Move between two private keys failed")
			}
		}
		move()
		before = st().Records
		if avg := testing.AllocsPerRun(200, move); avg != 0 {
			t.Fatalf("shards=%d: durable same-shard Move pair allocates %.2f times per run, want 0", shards, avg)
		}
		if n := st().Records - before; n < 400 {
			t.Fatalf("shards=%d: %d records logged, want two per run", shards, n)
		}
	}
}

func benchAtomic(b *testing.B, shards int, body func(x *atomicFixture) func(*ftx.Tx) error) {
	x := newAtomicFixture(b, shards, 1<<16)
	fn := body(x)
	rng := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range x.ks {
			rng = rng*6364136223846793005 + 1442695040888963407
			x.ks[j] = rng >> 48 // uniform over [0, 1<<16)
		}
		if x.ks[0] == x.ks[3] {
			x.ks[3] ^= 1
		}
		if err := x.h.Atomic(fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtomicTransferS1(b *testing.B) {
	benchAtomic(b, 1, func(x *atomicFixture) func(*ftx.Tx) error { return x.transfer })
}

func BenchmarkAtomicTransferS8(b *testing.B) {
	benchAtomic(b, 8, func(x *atomicFixture) func(*ftx.Tx) error { return x.transfer })
}

func BenchmarkAtomicAuditS8(b *testing.B) {
	benchAtomic(b, 8, func(x *atomicFixture) func(*ftx.Tx) error { return x.audit })
}

// TestAtomicLargeTransaction runs transactions far past the size at which
// the key log is scanned — up to 4096 keys over 8 shards, mixing
// reads, overwrites, deletes, inserts and reads of its own writes — against
// a map oracle, and logs the cost per key at both sizes (the log indexes
// itself past a handful of entries; see ftx's keyLog).
func TestAtomicLargeTransaction(t *testing.T) {
	const span = 1 << 13
	x := newAtomicFixture(t, 8, span)
	type state struct {
		v  uint64
		ok bool
	}
	model := make(map[uint64]uint64, span)
	for k := uint64(0); k < span; k++ {
		model[k] = 1000
	}
	perKey := func(n int, seed uint64) time.Duration {
		best := time.Duration(1 << 62)
		for rep := uint64(0); rep < 3; rep++ {
			var eff map[uint64]state // the attempt's effects
			t0 := time.Now()
			err := x.h.Atomic(func(tx *ftx.Tx) error {
				eff = map[uint64]state{}
				rng := seed + rep
				for i := 0; i < n; i++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					k := rng >> 33 % (span + span/8) // an eighth of the keys were never inserted
					cur, written := eff[k]
					if !written {
						cur.v, cur.ok = model[k]
					}
					if v, ok := tx.Get(k); ok != cur.ok || v != cur.v {
						t.Errorf("n=%d: Get(%d) = %d,%t want %d,%t", n, k, v, ok, cur.v, cur.ok)
					}
					switch i % 4 {
					case 1:
						tx.Put(k, cur.v+1)
						eff[k] = state{cur.v + 1, true}
					case 2:
						if tx.Delete(k) != cur.ok {
							t.Errorf("n=%d: Delete(%d) = %t", n, k, !cur.ok)
						}
						eff[k] = state{}
					case 3:
						if tx.Insert(k, 7) == cur.ok {
							t.Errorf("n=%d: Insert(%d) = %t", n, k, cur.ok)
						}
						if !cur.ok {
							eff[k] = state{7, true}
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Atomic: %v", err)
			}
			best = min(best, time.Since(t0))
			for k, e := range eff {
				if e.ok {
					model[k] = e.v
				} else {
					delete(model, k)
				}
			}
		}
		return best / time.Duration(n)
	}
	small := perKey(256, 1)
	large := perKey(4096, 2)
	for k := uint64(0); k < span+span/8; k++ {
		v, ok := x.h.Get(k)
		if mv, mok := model[k]; ok != mok || v != mv {
			t.Fatalf("key %d = %d,%t after the transactions, model %d,%t", k, v, ok, mv, mok)
		}
	}
	if st := x.h.XactStats(); st.Commits != 6 || st.Fallbacks+st.ReadOnly != 0 {
		t.Fatalf("stats %+v, want 6 writing cross-shard commits", st)
	}
	// Logged, not asserted: a wall-clock ratio is a flake on a shared host.
	// That lookups leave the linear scan past a handful of entries is pinned
	// structurally by ftx's TestKeyLogScanToIndex.
	t.Logf("per key: %v at 256 keys, %v at 4096", small, large)
}
