package trees

import (
	"testing"

	"repro/internal/stm"
)

// TestWholeOpsZeroAllocs gates the one whole-operation layer on every kind:
// once the thread's frame and scan buffer exist, Get, Contains, an
// Insert+Delete pair, Move, Range and Size stay off the Go allocator. New
// nodes come from the tree's arena and unlinked ones return to it through
// the thread's limbo, neither of which is a Go allocation. AllocsPerRun
// counts process-wide mallocs, so nothing else may run.
func TestWholeOpsZeroAllocs(t *testing.T) {
	const n = 256
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			m := New(kind, s)
			th := s.NewThread()
			// The even key of every pair {2i, 2i+1} is present.
			for i := uint64(0); i < n; i++ {
				m.Insert(th, 2*(i*37%n), i)
			}
			var k uint64
			next := func() uint64 { k = (k + 97) % n; return k }
			var odd [n]bool
			visited := 0
			fn := func(_, _ uint64) bool { visited++; return true }
			checks := []struct {
				name string
				op   func()
			}{
				{"Get", func() { m.Get(th, 2*next()) }},
				{"Contains", func() { m.Contains(th, next()) }},
				{"InsertDelete", func() {
					k := 2*next() + 1
					if odd[k/2] {
						k--
					}
					if !m.Insert(th, k, k) || !m.Delete(th, k) {
						t.Fatalf("Insert+Delete of absent key %d failed", k)
					}
				}},
				{"Move", func() { // the live key of a pair onto its sibling
					i := next()
					src, dst := 2*i, 2*i+1
					if odd[i] {
						src, dst = dst, src
					}
					if !m.Move(th, src, dst) {
						t.Fatalf("Move(%d, %d) failed", src, dst)
					}
					odd[i] = !odd[i]
				}},
				{"Range", func() { lo := 2 * next(); m.Range(th, lo, lo+63, fn) }},
				{"Size", func() { m.Size(th) }},
			}
			for _, c := range checks {
				for w := 0; w < 8; w++ {
					c.op() // warm up: the frame, its scan buffer, the limbo
				}
				if avg := testing.AllocsPerRun(200, c.op); avg != 0 {
					t.Errorf("%s: %s allocates %.2f times per run, want 0", kind, c.name, avg)
				}
			}
			if visited == 0 {
				t.Errorf("%s: the scans visited nothing", kind)
			}
			if got := m.Size(th); got != n {
				t.Errorf("%s: size %d after the checks, want %d", kind, got, n)
			}
		})
	}
}
