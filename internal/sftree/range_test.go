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
