package sftree

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/stm"
)

// TestYieldInjectionStress drives both variants with the STM's
// interleaving simulation turned up to maximum (yield on every access), so
// transactions overlap as aggressively as the scheduler allows. This is the
// regime that exposed two historical bugs in the optimized find: the stale
// parent-pair livelock and the ⊥ far-side child of rotation-removed nodes
// (Lemma 16's second case).
func TestYieldInjectionStress(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New(stm.WithYield(1))
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const goroutines = 8
			const ops = 400
			const keyRange = 256
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g * 31)))
					for i := 0; i < ops; i++ {
						k := uint64(rng.Intn(keyRange))
						switch rng.Intn(5) {
						case 0, 1:
							tr.Insert(th, k, uint64(i))
						case 2:
							tr.Delete(th, k)
						case 3:
							tr.Contains(th, k)
						default:
							tr.Move(th, k, uint64(rng.Intn(keyRange)))
						}
					}
				}(g)
			}
			wg.Wait()
			drv.Close()
			tr.Quiesce(100000)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckBalanced(1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestYieldInjectionSingleKey repeats the single-key linearizability check
// under maximal interleaving, where insert/delete/resurrect races on one
// node are as tight as they can get.
func TestYieldInjectionSingleKey(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New(stm.WithYield(1))
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const k = uint64(5)
			const goroutines = 6
			results := make([][2]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var ins, del uint64
					for i := 0; i < 250; i++ {
						if rng.Intn(2) == 0 {
							if tr.Insert(th, k, 1) {
								ins++
							}
						} else if tr.Delete(th, k) {
							del++
						}
					}
					results[g] = [2]uint64{ins, del}
				}(g)
			}
			wg.Wait()
			drv.Close()
			var ins, del uint64
			for _, r := range results {
				ins += r[0]
				del += r[1]
			}
			if ins != del && ins != del+1 {
				t.Fatalf("impossible history: %d inserts, %d deletes", ins, del)
			}
			present := tr.Contains(s.NewThread(), k)
			if present != (ins == del+1) {
				t.Fatalf("presence %v inconsistent with %d/%d", present, ins, del)
			}
		})
	}
}

// TestElasticConcurrentStress validates the elastic-compatibility claim of
// the speculation-friendly trees: full concurrency, elastic default mode,
// aggressive interleaving, then structural invariants and per-range oracle
// equivalence. (The coupled baselines are NOT elastic-safe — they demote —
// which is why only the SF variants appear here.)
func TestElasticConcurrentStress(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			s := stm.New(stm.WithMode(stm.Elastic), stm.WithYield(1))
			tr := New(s, WithVariant(v))
			drv := NewDriver(1, tr)
			const goroutines = 6
			const rangeSize = 48
			oracles := make([]map[uint64]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				th := s.NewThread()
				oracles[g] = map[uint64]uint64{}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					base := uint64(g * rangeSize)
					rng := rand.New(rand.NewSource(int64(g + 400)))
					for i := 0; i < 500; i++ {
						k := base + uint64(rng.Intn(rangeSize))
						if rng.Intn(2) == 0 {
							if tr.Insert(th, k, uint64(i)) {
								oracles[g][k] = uint64(i)
							}
						} else if tr.Delete(th, k) {
							delete(oracles[g], k)
						}
					}
				}(g)
			}
			wg.Wait()
			drv.Close()
			tr.Quiesce(100000)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			th := s.NewThread()
			for g := 0; g < goroutines; g++ {
				base := uint64(g * rangeSize)
				for off := uint64(0); off < rangeSize; off++ {
					k := base + off
					want, wantOK := oracles[g][k]
					got, gotOK := tr.Get(th, k)
					if gotOK != wantOK || (wantOK && got != want) {
						t.Fatalf("[elastic] key %d: (%d,%v) want (%d,%v)", k, got, gotOK, want, wantOK)
					}
				}
			}
		})
	}
}
