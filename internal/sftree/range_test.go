package sftree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
)

// TestRangeSkipsDeletedAndSurvivesMaintenance scans while the maintenance
// thread physically removes and rotates under the traversal: every scan
// must stay in-bounds, strictly ascending and free of logically deleted
// keys, and a quiescent scan must match the live set exactly.
func TestRangeSkipsDeletedAndSurvivesMaintenance(t *testing.T) {
	for _, variant := range []Variant{Portable, Optimized} {
		s := stm.New()
		tr := New(s, WithVariant(variant))
		drv := NewDriver(1, tr)
		th := s.NewThread()

		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // churn: inserts and logical deletes
			defer wg.Done()
			wth := s.NewThread()
			rng := rand.New(rand.NewSource(5))
			for !stop.Load() {
				k := uint64(rng.Intn(2048))
				if rng.Intn(2) == 0 {
					tr.Insert(wth, k, k)
				} else {
					tr.Delete(wth, k)
				}
			}
		}()
		for i := 0; i < 300; i++ {
			prev, first := uint64(0), true
			tr.Range(th, 256, 1792, func(k, v uint64) bool {
				if k < 256 || k > 1792 {
					t.Errorf("key %d out of bounds", k)
				}
				if !first && k <= prev {
					t.Errorf("not ascending: %d after %d", k, prev)
				}
				if v != k {
					t.Errorf("torn value %d at %d", v, k)
				}
				prev, first = k, false
				return true
			})
		}
		stop.Store(true)
		wg.Wait()
		drv.Close()

		// Quiescent: Range over everything must equal Keys.
		keys := tr.Keys(th)
		var got []uint64
		tr.Range(th, 0, MaxKey-1, func(k, _ uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(keys) {
			t.Fatalf("%v: range %d keys, Keys %d", variant, len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("%v: range[%d] = %d, Keys %d", variant, i, got[i], keys[i])
			}
		}
	}
}

// TestRangeElastic checks the elastic scan returns correct results on a
// quiescent tree (where cutting changes nothing) and exercises it under
// churn (sortedness within the scan is still guaranteed by the in-order
// walk; elastic cuts are counted to prove the discipline actually ran).
func TestRangeElastic(t *testing.T) {
	s := stm.New(stm.WithMode(stm.Elastic))
	tr := New(s, WithVariant(Portable))
	th := s.NewThread()
	for k := uint64(0); k < 500; k++ {
		tr.Insert(th, k, k*2)
	}
	var got []uint64
	if !tr.RangeElastic(th, 100, 199, func(k, v uint64) bool {
		if v != k*2 {
			t.Fatalf("value %d at key %d", v, k)
		}
		got = append(got, k)
		return true
	}) {
		t.Fatal("elastic scan reported early stop")
	}
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("elastic scan saw %d keys [%d..%d]", len(got), got[0], got[len(got)-1])
	}
	if th.Stats().ElasticCuts == 0 {
		t.Fatal("elastic scan performed no cuts (discipline did not engage)")
	}

	// The optimized variant demotes to CTL (still correct, no cuts needed).
	so := stm.New(stm.WithMode(stm.Elastic))
	tro := New(so, WithVariant(Optimized))
	tho := so.NewThread()
	tro.Insert(tho, 1, 10)
	n := 0
	tro.RangeElastic(tho, 0, 10, func(_, _ uint64) bool { n++; return true })
	if n != 1 {
		t.Fatalf("optimized elastic scan visited %d", n)
	}
}
