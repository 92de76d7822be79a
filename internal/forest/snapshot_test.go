package forest

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
	"repro/internal/trees"
)

// commitRec is one committed write as its writer saw it: the shard-clock
// position the commit published at and the key's state from then on.
type commitRec struct {
	pos     uint64
	k, v    uint64
	present bool
}

// TestSnapshotShardChunkedUnderWriters: two writers hammer one 2¹⁵-key
// shard while SnapshotShard runs. The chunked snapshot must (1) cost the
// checkpoint thread about what a quiescent one costs — a conflict redoes
// one chunk, where the whole-shard transaction it replaces redid the shard
// (hundreds of times over under this load) — and (2) return a cut at or
// below every chunk's own: each key's snapshot state is one the key held
// at some position at or above the returned cut, which is what lets
// recovery replay every record above the cut over it (durable.Source).
func TestSnapshotShardChunkedUnderWriters(t *testing.T) {
	const n = 1 << 15
	f := New(trees.SFOpt, WithShards(1))
	defer f.Close()
	h := f.NewHandle()
	for i := 0; i < n; i++ {
		k := uint64(i * 40503 & (n - 1)) // odd multiplier: a permutation of [0, n)
		h.Insert(k, k)
	}
	f.Quiesce(64)

	pairs := 0
	f.SnapshotShard(0, func(k, v uint64) { pairs++ })
	th := f.ckptTh
	if pairs != n {
		t.Fatalf("quiescent snapshot streamed %d pairs, want %d", pairs, n)
	}
	quiet := th.Stats().Reads

	// Writers own the keys of their parity, so each key's history is one
	// writer's, in commit order. They go below the facade to register their
	// own post-commit hook: it hands them the commit position.
	m := f.maps[0]
	var stop atomic.Bool
	var wg sync.WaitGroup
	hist := make([][]commitRec, 2)
	for w := range hist {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wth := f.stm.NewThread()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := uint64(1); !stop.Load(); i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				k := rng%(n/2)*2 + uint64(w)
				rec := commitRec{k: k, v: i<<1 | uint64(w)}
				trees.Atomic(m, wth, func(tx *stm.Tx) {
					// Toggle: delete a present key, insert an absent one.
					rec.present = !m.DeleteTx(tx, k)
					if rec.present && !m.InsertTxA(tx, k, rec.v) {
						tx.Restart()
					}
					tx.OnCommitted(func(pos uint64) { rec.pos = pos })
				})
				hist[w] = append(hist[w], rec)
			}
		}()
	}

	type state struct {
		v       uint64
		present bool
	}
	snap := make(map[uint64]uint64, n)
	cut := f.SnapshotShard(0, func(k, v uint64) {
		if _, dup := snap[k]; dup {
			t.Errorf("key %d streamed twice", k)
		}
		snap[k] = v
	})
	stop.Store(true)
	wg.Wait()
	loaded := th.Stats().Reads - quiet

	t.Logf("cut %d; %d+%d writes committed meanwhile; checkpoint-thread reads: quiescent %d, under writers %d (%.2f×)",
		cut, len(hist[0]), len(hist[1]), quiet, loaded, float64(loaded)/float64(quiet))
	if loaded > 4*quiet {
		t.Errorf("snapshot under writers cost %d reads, over 4× the quiescent %d", loaded, quiet)
	}

	// admissible[k] lists the states k held at positions >= cut: the one in
	// force at the cut, then every later one.
	admissible := make(map[uint64][]state, n)
	for k := uint64(0); k < n; k++ {
		admissible[k] = []state{{k, true}}
	}
	for _, recs := range hist {
		for _, r := range recs {
			s := state{r.v, r.present}
			if r.pos <= cut {
				admissible[r.k] = append(admissible[r.k][:0], s)
			} else {
				admissible[r.k] = append(admissible[r.k], s)
			}
		}
	}
	bad := 0
	for k, states := range admissible {
		v, present := snap[k]
		ok := false
		for _, s := range states {
			if s.present == present && (!present || s.v == v) {
				ok = true
				break
			}
		}
		if !ok && bad < 5 {
			bad++
			t.Errorf("key %d: snapshot has (%d,%v), not a state it held at or above cut %d: %v", k, v, present, cut, states)
		}
	}
}
