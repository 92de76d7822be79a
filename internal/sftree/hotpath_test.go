package sftree

import (
	"testing"

	"repro/internal/stm"
)

// Steady-state allocation gates for the public per-operation API. With no
// maintenance running (New never starts it), a delete only marks the node
// logically deleted, so the insert/delete alternation below resurrects the
// same node forever: the arena never grows, the per-thread operation frames
// are built once, and the whole cycle must stay off the allocator.
// AllocsPerRun counts process-wide mallocs, so nothing else may run.
func TestTreeOpsZeroAllocs(t *testing.T) {
	for _, variant := range []Variant{Portable, Optimized} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			s := stm.New()
			tr := New(s, WithVariant(variant))
			th := s.NewThread()

			for k := uint64(1); k <= 32; k++ {
				tr.Insert(th, k, k)
			}

			checks := []struct {
				name string
				op   func()
			}{
				{"Contains", func() { tr.Contains(th, 7) }},
				{"Get", func() { tr.Get(th, 7) }},
				{"InsertDelete", func() {
					// Resurrection cycle: Delete marks key 5 logically
					// deleted, Insert revives the same node in place.
					tr.Delete(th, 5)
					tr.Insert(th, 5, 55)
				}},
				{"ContainsMissing", func() { tr.Contains(th, 1<<40) }},
			}
			for _, c := range checks {
				c.op() // warm up (frame construction)
				if avg := testing.AllocsPerRun(100, c.op); avg != 0 {
					t.Errorf("%s/%s allocates %.2f times per run, want 0", variant, c.name, avg)
				}
			}
		})
	}
}
