package repro

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
)

// durableKindsAndShards enumerates the durability oracle's configurations:
// every tree library at one shard (the paper's single-domain arrangement,
// run as a one-shard forest) and at eight.
func durableKindsAndShards(t *testing.T, fn func(t *testing.T, kind Kind, shards int)) {
	for _, kind := range []Kind{SpeculationFriendly, SpeculationFriendlyOptimized, RedBlack, AVL, NoRestructuring} {
		for _, shards := range []int{1, 8} {
			kind, shards := kind, shards
			t.Run(string(kind)+"/shards="+string(rune('0'+shards)), func(t *testing.T) {
				fn(t, kind, shards)
			})
		}
	}
}

// treeState reads the whole abstraction into a map.
func treeState(h *Handle) map[uint64]uint64 {
	m := map[uint64]uint64{}
	h.Ascend(func(k, v uint64) bool { m[k] = v; return true })
	return m
}

// assertStateEqual compares the tree against the model map.
func assertStateEqual(t *testing.T, h *Handle, model map[uint64]uint64, ctx string) {
	t.Helper()
	got := treeState(h)
	if len(got) != len(model) {
		t.Fatalf("%s: %d keys, want %d", ctx, len(got), len(model))
	}
	for k, v := range model {
		if gv, ok := got[k]; !ok || gv != v {
			t.Fatalf("%s: key %d = (%d,%v), want %d", ctx, k, gv, ok, v)
		}
	}
}

// copyDir duplicates every regular file of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableRecoveryOracle drives a randomized workload (single-key
// updates, composed Update transactions, moves, cross-shard Atomic
// transfers) against a durable tree while maintaining a model map, then
// closes and reopens the directory twice — once mid-history with an
// explicit checkpoint in between — asserting the recovered abstraction
// equals the model exactly, for every kind at shards 1 and 8.
func TestDurableRecoveryOracle(t *testing.T) {
	durableKindsAndShards(t, func(t *testing.T, kind Kind, shards int) {
		dir := t.TempDir()
		opts := []Option{WithShards(shards),
			WithDurability(DurabilityOptions{Sync: true, CheckpointEvery: -1})}
		tr, err := Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]uint64{}
		rng := rand.New(rand.NewSource(int64(shards)*1000 + int64(len(kind))))
		const keyRange = 256

		mutate := func(h *Handle, n int) {
			for i := 0; i < n; i++ {
				k := uint64(rng.Intn(keyRange))
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					v := uint64(rng.Intn(1000)) + 1
					if h.Insert(k, v) {
						model[k] = v
					}
				case 4, 5:
					if h.Delete(k) {
						delete(model, k)
					}
				case 6:
					dst := uint64(rng.Intn(keyRange))
					if h.Move(k, dst) && k != dst {
						model[dst] = model[k]
						delete(model, k)
					}
				case 7:
					h.Update(func(op *Op) {
						if v, ok := op.Get(k); ok {
							op.Delete(k)
							op.Insert(k, v+1)
						} else {
							op.Insert(k, 500)
						}
					})
					if v, ok := model[k]; ok {
						model[k] = v + 1
					} else {
						model[k] = 500
					}
				default:
					k2 := uint64(rng.Intn(keyRange))
					h.Atomic(func(x *Txn) error {
						a, aok := x.Get(k)
						b, bok := x.Get(k2)
						if !aok || !bok || k == k2 || a == 0 {
							return nil
						}
						x.Put(k, a-1)
						x.Put(k2, b+1)
						return nil
					})
					a, aok := model[k]
					b, bok := model[k2]
					if aok && bok && k != k2 && a != 0 {
						model[k] = a - 1
						model[k2] = b + 1
					}
				}
			}
		}

		mutate(tr.NewHandle(), 200)
		tr.Close()

		tr, err = Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		assertStateEqual(t, tr.NewHandle(), model, "after first recovery")

		// Second phase: more history, an explicit checkpoint in the middle
		// (rotation + truncation on a live tree), more history on top.
		h := tr.NewHandle()
		mutate(h, 100)
		if err := tr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mutate(h, 100)
		tr.Close()

		tr, err = Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		assertStateEqual(t, tr.NewHandle(), model, "after checkpointed recovery")
	})
}

// TestDurableTruncationOracle is the crash-consistency oracle of the
// acceptance criteria: a scripted operation history is logged with
// per-operation fsync (one record per operation, so record boundaries are
// observable as file sizes), the final operation being a cross-shard
// Atomic transfer; then for every byte offset of the live WAL tail — every
// record boundary plus every byte inside the tail record — the directory
// is copied, the live segment truncated at that offset, and repro.Open
// must recover exactly the model at the newest wholly-contained record,
// with the transfer's sum conservation preserved (its one record is
// recovered wholly or not at all).
func TestDurableTruncationOracle(t *testing.T) {
	durableKindsAndShards(t, func(t *testing.T, kind Kind, shards int) {
		dir := t.TempDir()
		opts := []Option{WithShards(shards), WithoutMaintenance(),
			WithDurability(DurabilityOptions{Sync: true, CheckpointEvery: -1})}
		tr, err := Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		seg := tr.Durable().LiveSegment()
		segSize := func() int64 {
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}
		type snap struct {
			size  int64
			state map[uint64]uint64
		}
		model := map[uint64]uint64{}
		record := func() snap {
			cp := make(map[uint64]uint64, len(model))
			for k, v := range model {
				cp[k] = v
			}
			return snap{size: segSize(), state: cp}
		}
		snaps := []snap{record()}
		h := tr.NewHandle()

		const accA, accB = 3, 4 // the transfer accounts
		step := func(fn func()) { fn(); snaps = append(snaps, record()) }
		for i := uint64(0); i < 10; i++ {
			i := i
			step(func() { h.Insert(i, 100); model[i] = 100 })
		}
		step(func() { h.Delete(7); delete(model, 7) })
		step(func() { h.Move(2, 200); model[200] = model[2]; delete(model, 2) })
		step(func() {
			h.Update(func(op *Op) { op.Delete(5); op.Insert(5, 555) })
			model[5] = 555
		})
		// Tail record: one Atomic transfer A→B, free keys (one record,
		// whether or not the accounts live on one shard).
		step(func() {
			h.Atomic(func(x *Txn) error {
				a, _ := x.Get(accA)
				b, _ := x.Get(accB)
				x.Put(accA, a-25)
				x.Put(accB, b+25)
				return nil
			})
			model[accA] -= 25
			model[accB] += 25
		})
		tr.Close()
		blob, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[len(snaps)-1].size != int64(len(blob)) {
			t.Fatalf("final boundary %d != segment size %d", snaps[len(snaps)-1].size, len(blob))
		}

		// Cuts: every record boundary, plus every byte of the tail record.
		cuts := map[int64]bool{}
		for _, s := range snaps {
			cuts[s.size] = true
		}
		for c := snaps[len(snaps)-2].size; c <= snaps[len(snaps)-1].size; c++ {
			cuts[c] = true
		}
		sumAB := func(st map[uint64]uint64) uint64 { return st[accA] + st[accB] }
		tailStart := snaps[len(snaps)-2].size

		for cut := range cuts {
			var want map[uint64]uint64
			for _, s := range snaps {
				if s.size <= cut {
					want = s.state
				}
			}
			cdir := t.TempDir()
			copyDir(t, dir, cdir)
			if err := os.Truncate(filepath.Join(cdir, filepath.Base(seg)), cut); err != nil {
				t.Fatal(err)
			}
			tr2, err := Open(cdir, kind, opts...)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			h2 := tr2.NewHandle()
			got := treeState(h2)
			if len(got) != len(want) {
				tr2.Close()
				t.Fatalf("cut %d: recovered %d keys, want %d", cut, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					tr2.Close()
					t.Fatalf("cut %d: key %d = %d, want %d", cut, k, got[k], v)
				}
			}
			// Inside the tail (transfer) record both accounts long exist:
			// whether or not the record survives the tear, their sum must be
			// conserved — a split record would break it.
			if cut >= tailStart {
				if s := sumAB(got); s != sumAB(want) {
					tr2.Close()
					t.Fatalf("cut %d: transfer sum %d, want %d (record split by the tear?)", cut, s, sumAB(want))
				}
			}
			// The recovered tree must be live: a fresh committed update
			// survives its own recovery machinery.
			h2.Insert(9999, 1)
			tr2.Close()
		}
	})
}

// TestDurableStaleFilesAfterSeal reproduces, at the facade level, a kill
// between checkpoint seal and log truncation: the directory is re-seeded
// with the stale segments and checkpoint of an earlier generation next to
// the current files, and repro.Open must trust only the newest seal.
func TestDurableStaleFilesAfterSeal(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithShards(8),
		WithDurability(DurabilityOptions{Sync: true, CheckpointEvery: -1})}
	tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle()
	model := map[uint64]uint64{}
	for i := uint64(0); i < 50; i++ {
		h.Insert(i, i+1)
		model[i] = i + 1
	}
	tr.Close()
	saved := t.TempDir()
	copyDir(t, dir, saved)

	// Second generation: recovery seals a fresh checkpoint (truncating the
	// saved files), then more history diverges the state from generation 1.
	tr, err = Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h = tr.NewHandle()
	for i := uint64(0); i < 50; i += 2 {
		h.Delete(i)
		delete(model, i)
	}
	h.Insert(1000, 1)
	model[1000] = 1
	tr.Close()

	// Resurrect the stale generation-1 files beside the live ones.
	ents, err := os.ReadDir(saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		dst := filepath.Join(dir, e.Name())
		if _, err := os.Stat(dst); err == nil {
			continue // still live, leave it
		}
		b, err := os.ReadFile(filepath.Join(saved, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	tr, err = Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	assertStateEqual(t, tr.NewHandle(), model, "recovery with stale pre-truncation files")
}

// TestDurableCheckpointStress runs checkpoints concurrently with
// Update/Move/Atomic/Insert/Delete traffic on a durable sharded forest
// (run under -race by the Makefile's race target), then closes, recovers,
// and asserts the recovered state equals the final in-memory state — with
// the Atomic transfer workload's sum conservation intact through recovery.
func TestDurableCheckpointStress(t *testing.T) {
	dir := t.TempDir()
	tr, err := Open(dir, SpeculationFriendlyOptimized, WithShards(8),
		WithDurability(DurabilityOptions{GroupCommit: time.Millisecond, CheckpointEvery: -1}))
	if err != nil {
		t.Fatal(err)
	}
	const accounts = 64
	const seedVal = 100
	seed := tr.NewHandle()
	for i := uint64(0); i < accounts; i++ {
		seed.Insert(i, seedVal)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	workers := 4
	if testing.Short() {
		workers = 2
	}
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			// Private key range per worker keeps the model trivial; the
			// shared accounts are only touched through Atomic transfers.
			base := uint64(1000 * (w + 1))
			for !stop.Load() {
				switch rng.Intn(6) {
				case 0:
					h.Insert(base+uint64(rng.Intn(200)), uint64(rng.Intn(1000)))
				case 1:
					h.Delete(base + uint64(rng.Intn(200)))
				case 2:
					h.Move(base+uint64(rng.Intn(200)), base+uint64(rng.Intn(200)))
				case 3:
					k := base + uint64(rng.Intn(200))
					h.Update(func(op *Op) {
						if v, ok := op.Get(k); ok {
							op.Delete(k)
							op.Insert(k, v+1)
						} else {
							op.Insert(k, 1)
						}
					})
				default:
					a := uint64(rng.Intn(accounts))
					b := uint64(rng.Intn(accounts))
					h.Atomic(func(x *Txn) error {
						av, aok := x.Get(a)
						bv, bok := x.Get(b)
						if !aok || !bok || a == b || av == 0 {
							return nil
						}
						x.Put(a, av-1)
						x.Put(b, bv+1)
						return nil
					})
				}
			}
		}()
	}
	// Checkpoint continuously against the live traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := tr.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	d := 300 * time.Millisecond
	if testing.Short() {
		d = 100 * time.Millisecond
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()

	final := treeState(tr.NewHandle())
	tr.Close()

	tr2, err := Open(dir, SpeculationFriendlyOptimized, WithShards(8),
		WithDurability(DurabilityOptions{GroupCommit: time.Millisecond, CheckpointEvery: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	got := treeState(tr2.NewHandle())
	if len(got) != len(final) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(final))
	}
	for k, v := range final {
		if got[k] != v {
			t.Fatalf("key %d = %d, want %d", k, got[k], v)
		}
	}
	var sum uint64
	for i := uint64(0); i < accounts; i++ {
		sum += got[i]
	}
	if sum != accounts*seedVal {
		t.Fatalf("account sum %d after recovery, want %d (transfer atomicity broken)", sum, accounts*seedVal)
	}
}

// TestDurableConcurrentRecoveryOracle is the concurrent variant of the
// recovery oracle: workers churn worker-owned key stripes with single-key
// ops and composed Update transactions on a durable tree under the
// default asynchronous group commit, so many goroutines' records interleave
// in each shard's WAL; after Close and reopen the recovered abstraction
// must equal the model exactly. Per-stripe single-writership makes the
// model exact despite the concurrency.
func TestDurableConcurrentRecoveryOracle(t *testing.T) {
	durableKindsAndShards(t, func(t *testing.T, kind Kind, shards int) {
		dir := t.TempDir()
		opts := []Option{WithShards(shards),
			WithDurability(DurabilityOptions{CheckpointEvery: -1})}
		tr, err := Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}

		const workers = 4
		const iterations = 300
		const stripe = 128
		var modelMu sync.Mutex
		model := map[uint64]uint64{}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tr.NewHandle()
				rng := rand.New(rand.NewSource(int64(w)*104729 + int64(shards)))
				base := uint64(1000 * (w + 1))
				for i := 0; i < iterations; i++ {
					k := base + uint64(rng.Intn(stripe))
					switch rng.Intn(5) {
					case 0, 1:
						v := uint64(rng.Intn(1000)) + 1
						if h.Insert(k, v) {
							modelMu.Lock()
							model[k] = v
							modelMu.Unlock()
						}
					case 2:
						if h.Delete(k) {
							modelMu.Lock()
							delete(model, k)
							modelMu.Unlock()
						}
					case 3:
						h.Update(func(op *Op) {
							if v, ok := op.Get(k); ok {
								op.Delete(k)
								op.Insert(k, v+1)
							} else {
								op.Insert(k, 7)
							}
						})
						modelMu.Lock()
						if v, ok := model[k]; ok {
							model[k] = v + 1
						} else {
							model[k] = 7
						}
						modelMu.Unlock()
					default:
						h.Get(k)
					}
				}
			}()
		}
		wg.Wait()
		tr.Close()

		tr, err = Open(dir, kind, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		assertStateEqual(t, tr.NewHandle(), model, "after concurrent recovery")
	})
}

// TestDurableChunkedCheckpointCrashOracle: writers churn private key stripes
// while checkpoints run back to back — shards big enough that every
// snapshot spans several chunk transactions, so checkpoints are sealed with
// a cut that is the minimum over chunks cut at different clock positions.
// The writers then stop, the log is synced, and the directory is copied as
// it stands (a crash: no Close, no final checkpoint, whatever checkpoints
// happened to seal).
// Every operation returned before that sync, so recovery of the copy must
// equal the model exactly: replaying the records above a minimum cut over
// chunks that already hold them has to be idempotent. Nothing on disk
// names a shard, so a second copy reopened at the other shard count of
// {1, 8} must recover the same state.
func TestDurableChunkedCheckpointCrashOracle(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run("shards="+string(rune('0'+shards)), func(t *testing.T) {
			const writers = 2
			const stripe = 1 << 13 // 2¹⁴ keys: ≥ 2 chunks per shard at 8 shards, 16 at 1
			dir := t.TempDir()
			opts := []Option{WithShards(shards),
				WithDurability(DurabilityOptions{GroupCommit: time.Millisecond, CheckpointEvery: -1})}
			tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()

			var stop atomic.Bool
			var wg sync.WaitGroup
			models := make([]map[uint64]uint64, writers)
			for w := range models {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h := tr.NewHandle()
					m := make(map[uint64]uint64, stripe)
					base := uint64(w) * stripe
					for k := base; k < base+stripe; k++ {
						h.Insert(k, k)
						m[k] = k
					}
					rng := rand.New(rand.NewSource(int64(w) + 1))
					for i := uint64(1); !stop.Load(); i++ {
						k := base + uint64(rng.Intn(stripe))
						if _, ok := m[k]; ok {
							h.Delete(k)
							delete(m, k)
						} else {
							h.Insert(k, i)
							m[k] = i
						}
					}
					models[w] = m
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Bursts of back-to-back checkpoints (rotations chasing each
				// other) separated by pauses that let the writers move on.
				for i := 1; !stop.Load(); i++ {
					if err := tr.Checkpoint(); err != nil {
						t.Error(err)
						return
					}
					if i%8 == 0 {
						time.Sleep(20 * time.Millisecond)
					}
				}
			}()
			d := 400 * time.Millisecond
			if testing.Short() {
				d = 150 * time.Millisecond
			}
			time.Sleep(d)
			stop.Store(true)
			wg.Wait()
			if err := tr.Sync(); err != nil {
				t.Fatal(err)
			}
			crashed, other := t.TempDir(), t.TempDir()
			copyDir(t, dir, crashed)
			copyDir(t, dir, other)

			model := map[uint64]uint64{}
			for _, m := range models {
				for k, v := range m {
					model[k] = v
				}
			}
			st := tr.Durable().Stats()
			t.Logf("%d checkpoints (%d pairs) against %d records", st.Checkpoints, st.CheckpointPairs, st.Records)
			tr2, err := Open(crashed, SpeculationFriendlyOptimized, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer tr2.Close()
			assertStateEqual(t, tr2.NewHandle(), model, "recovery of the crash copy")

			tr3, err := Open(other, SpeculationFriendlyOptimized, append(opts, WithShards(9-shards))...)
			if err != nil {
				t.Fatal(err)
			}
			defer tr3.Close()
			assertStateEqual(t, tr3.NewHandle(), model, fmt.Sprintf("recovery of the crash copy at %d shards", 9-shards))
		})
	}
}

// TestDurableRecoveryFallbacks drives recovery's fallbacks on damaged or
// foreign directories, at shards {1, 8} × recovery appliers {1, 4}: a
// corrupted newest checkpoint, a deleted middle WAL segment, and files of
// the old on-disk format. Each history
// phase writes its own key range, so a degraded recovery's expected state
// is computable.
func TestDurableRecoveryFallbacks(t *testing.T) {
	for _, shards := range []int{1, 8} {
		for _, appliers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/appliers=%d", shards, appliers), func(t *testing.T) {
				opts := []Option{WithShards(shards), WithoutMaintenance(),
					WithDurability(DurabilityOptions{Sync: true, CheckpointEvery: -1,
						RecoveryAppliers: appliers})}
				t.Run("corrupt-newest-checkpoint", func(t *testing.T) { fallbackCorruptNewest(t, opts) })
				t.Run("missing-middle-segment", func(t *testing.T) { fallbackMissingSegment(t, opts) })
				t.Run("old-format-files", func(t *testing.T) { fallbackOldFormatFiles(t, opts) })
			})
		}
	}
}

// writePhase inserts keys [lo, lo+20) into the tree and the model.
func writePhase(h *Handle, model map[uint64]uint64, lo uint64) {
	for k := lo; k < lo+20; k++ {
		h.Insert(k, k*7+1)
		model[k] = k*7 + 1
	}
}

// checkpointGens lists the generations of the checkpoint files in dir,
// ascending.
func checkpointGens(t *testing.T, dir string) []uint64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		if _, err := fmt.Sscanf(e.Name(), "checkpoint-%d.ckpt", &g); err == nil && strings.HasSuffix(e.Name(), ".ckpt") {
			gens = append(gens, g)
		}
	}
	return gens
}

// reopenExpect opens dir, asserts the recovered state equals want, and
// returns the recovery report.
func reopenExpect(t *testing.T, dir string, opts []Option, want map[uint64]uint64, ctx string) durable.Recovery {
	t.Helper()
	tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	defer tr.Close()
	assertStateEqual(t, tr.NewHandle(), want, ctx)
	return tr.Recovery()
}

// fallbackCorruptNewest: a crash between a checkpoint's seal and its
// truncation leaves the older checkpoint and its segments beside the new
// one. Recovery must pick the newest seal; when that one is damaged, it
// must fall back to the older one and replay its segments — losing
// nothing, since they hold every record the damaged checkpoint covered.
func fallbackCorruptNewest(t *testing.T, opts []Option) {
	dir := t.TempDir()
	tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle()
	model := map[uint64]uint64{}
	writePhase(h, model, 0)
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	older := checkpointGens(t, dir)
	writePhase(h, model, 100)
	saved := t.TempDir()
	copyDir(t, dir, saved)
	if err := tr.Checkpoint(); err != nil { // truncates the older checkpoint and segment
		t.Fatal(err)
	}
	newest := checkpointGens(t, dir)
	writePhase(h, model, 200)
	tr.Close()
	if len(older) != 1 || len(newest) != 1 || newest[0] <= older[0] {
		t.Fatalf("checkpoints %v then %v, want one each, the second newer", older, newest)
	}

	// The sealed-but-not-truncated image: recovered intact first, then with
	// the newest seal damaged.
	ents, err := os.ReadDir(saved)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, err := os.Stat(filepath.Join(dir, e.Name())); os.IsNotExist(err) {
			b, err := os.ReadFile(filepath.Join(saved, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	intact := t.TempDir()
	copyDir(t, dir, intact)
	if rec := reopenExpect(t, intact, opts, model, "recovery in the sealed-but-not-truncated window"); rec.CheckpointGen != newest[0] {
		t.Fatalf("undamaged: recovered from checkpoint %d, want the newest seal %d", rec.CheckpointGen, newest[0])
	}
	p := filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt", newest[0]))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := reopenExpect(t, dir, opts, model, "recovery past a corrupted newest checkpoint")
	if rec.CheckpointGen != older[0] {
		t.Fatalf("recovered from checkpoint %d, want the older seal %d", rec.CheckpointGen, older[0])
	}
}

// fallbackMissingSegment: two checkpoints that fail after their rotation
// leave the last sealed checkpoint followed by three segments; deleting the
// middle one (external damage — sealed files should not vanish) must
// degrade, not fail: the checkpoint plus the records of the surviving
// segments. A second reopen must reproduce that state exactly.
func fallbackMissingSegment(t *testing.T, opts []Option) {
	dir := t.TempDir()
	tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle()
	model := map[uint64]uint64{}
	writePhase(h, model, 0)
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	gen := checkpointGens(t, dir)[0]
	writePhase(h, model, 100)
	want := maps.Clone(model)
	// Squatting a directory on a checkpoint's temporary name fails its
	// seal after the rotation, so each failed attempt starts a new segment.
	failCheckpoint := func(g uint64) string {
		blocked := filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt.tmp", g))
		if err := os.Mkdir(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := tr.Checkpoint(); err == nil {
			t.Fatal("checkpoint sealed despite the blocked path")
		}
		if err := os.Remove(blocked); err != nil {
			t.Fatal(err)
		}
		return tr.Durable().LiveSegment()
	}
	middle := failCheckpoint(gen + 1)
	writePhase(h, model, 200) // lost with the middle segment
	failCheckpoint(gen + 2)
	writePhase(h, model, 300)
	writePhase(h, want, 300)
	tr.Close()
	if got := checkpointGens(t, dir); len(got) != 1 || got[0] != gen {
		t.Fatalf("checkpoints %v on disk, want only %d", got, gen)
	}
	if err := os.Remove(middle); err != nil {
		t.Fatal(err)
	}

	rec := reopenExpect(t, dir, opts, want, "recovery with a missing middle segment")
	if rec.CheckpointGen != gen {
		t.Fatalf("recovered from checkpoint %d, want %d", rec.CheckpointGen, gen)
	}
	reopenExpect(t, dir, opts, want, "second recovery after the missing segment")
}

// fallbackOldFormatFiles: a WAL segment or checkpoint of the old,
// per-shard on-disk format, and any delta-*.ckpt (that format's
// incremental checkpoints), hold state this version cannot read, so Open
// must refuse the directory and name the file instead of treating it as
// damage and recovering an empty or older state; a stray manifest-*.mf is
// ignored.
func fallbackOldFormatFiles(t *testing.T, opts []Option) {
	dir := t.TempDir()
	tr, err := Open(dir, SpeculationFriendlyOptimized, opts...)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	writePhase(tr.NewHandle(), model, 0)
	if err := tr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var seg uint64
	if _, err := fmt.Sscanf(filepath.Base(tr.Durable().LiveSegment()), "wal-%d.log", &seg); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	gens := checkpointGens(t, dir)
	if len(gens) != 1 || gens[0] < 2 {
		t.Fatalf("checkpoints %v on disk, want one of generation >= 2", gens)
	}
	gen := gens[0]

	// Each artifact is placed where recovery reads it: the newest
	// checkpoint, the next segment, and any delta at all.
	for _, f := range []struct{ name, body string }{
		{fmt.Sprintf("checkpoint-%016d.ckpt", gen+1), "SFCKPT01 with a shard count and a cut per shard"},
		{fmt.Sprintf("wal-%016d.log", seg+1), "SFWAL001 with a shard count and shard-tagged records"},
		{fmt.Sprintf("delta-%016d.ckpt", gen-1), "SFDELT01 from a log that wrote incremental checkpoints"},
	} {
		p := filepath.Join(dir, f.name)
		if err := os.WriteFile(p, []byte(f.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if tr, err := Open(dir, SpeculationFriendlyOptimized, opts...); err == nil {
			tr.Close()
			t.Fatalf("Open succeeded beside the old-format %s", f.name)
		} else if !strings.Contains(err.Error(), f.name) {
			t.Fatalf("Open's error does not name %s: %v", f.name, err)
		}
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}

	junk := []byte("SFMANI01 from a log that wrote incremental checkpoints")
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("manifest-%016d.mf", gen)), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpect(t, dir, opts, model, "recovery beside a stray manifest")
}
