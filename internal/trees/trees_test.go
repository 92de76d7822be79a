package trees

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// TestAllKindsConformance runs one oracle scenario through every registered
// tree kind via the interface, including the composable forms.
func TestAllKindsConformance(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			m := New(kind, s)
			th := s.NewThread()
			stop := Start(m)
			defer stop()

			if m.Contains(th, 1) {
				t.Fatal("empty contains")
			}
			for k := uint64(0); k < 100; k++ {
				if !m.Insert(th, k, k*2) {
					t.Fatalf("insert %d failed", k)
				}
			}
			if m.Insert(th, 50, 1) {
				t.Fatal("duplicate insert succeeded")
			}
			if v, ok := m.Get(th, 50); !ok || v != 100 {
				t.Fatalf("get(50) = (%d,%v)", v, ok)
			}
			for k := uint64(0); k < 100; k += 2 {
				if !m.Delete(th, k) {
					t.Fatalf("delete %d failed", k)
				}
			}
			if got := m.Size(th); got != 50 {
				t.Fatalf("size = %d, want 50", got)
			}
			keys := m.Keys(th)
			if len(keys) != 50 {
				t.Fatalf("keys = %d entries", len(keys))
			}
			for i, k := range keys {
				if k != uint64(i*2+1) {
					t.Fatalf("keys[%d] = %d", i, k)
				}
			}

			// Composable forms inside one transaction.
			th.Atomic(func(tx *stm.Tx) {
				if !m.InsertTxA(tx, 1000, 1) {
					t.Error("InsertTxA failed")
				}
				if !m.ContainsTx(tx, 1000) {
					t.Error("own insert invisible")
				}
				if v, ok := m.GetTx(tx, 1000); !ok || v != 1 {
					t.Error("GetTx mismatch")
				}
				if !m.DeleteTx(tx, 1000) {
					t.Error("DeleteTx failed")
				}
			})
			if m.Contains(th, 1000) {
				t.Fatal("net-noop transaction left residue")
			}
			stop() // Quiesce drives the tree itself
			Quiesce(m, 1000)
		})
	}
}

// TestRangeConformance checks the Range/RangeTx contract on every kind:
// inclusive bounds, ascending order, deleted keys skipped, early stop, and
// composability inside an enclosing transaction.
func TestRangeConformance(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			s := stm.New()
			m := New(kind, s)
			th := s.NewThread()
			for k := uint64(0); k < 200; k++ {
				m.Insert(th, k, k+1000)
			}
			for k := uint64(0); k < 200; k += 3 {
				m.Delete(th, k)
			}
			want := func(lo, hi uint64) []uint64 {
				var out []uint64
				for k := lo; k <= hi && k < 200; k++ {
					if k%3 != 0 {
						out = append(out, k)
					}
				}
				return out
			}
			check := func(label string, got, want []uint64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: got %v, want %v", label, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: got %v, want %v", label, got, want)
					}
				}
			}
			for _, iv := range [][2]uint64{{0, 199}, {50, 99}, {7, 7}, {198, 5000}, {3, 3}} {
				var got []uint64
				done := m.Range(th, iv[0], iv[1], func(k, v uint64) bool {
					if v != k+1000 {
						t.Fatalf("value %d at key %d", v, k)
					}
					got = append(got, k)
					return true
				})
				if !done {
					t.Fatalf("Range(%d,%d) reported early stop", iv[0], iv[1])
				}
				check("Range", got, want(iv[0], iv[1]))
			}
			// Inverted interval: no visits, completion reported.
			if !m.Range(th, 9, 4, func(_, _ uint64) bool { t.Error("visited"); return true }) {
				t.Fatal("inverted interval reported stop")
			}
			// Early stop.
			n := 0
			if m.Range(th, 0, 199, func(_, _ uint64) bool { n++; return n < 4 }) {
				t.Fatal("stopped Range reported completion")
			}
			if n != 4 {
				t.Fatalf("stopped Range visited %d", n)
			}
			// RangeTx composes: read a window and update inside one
			// transaction; the scan must see the transaction's own writes.
			Atomic(m, th, func(tx *stm.Tx) {
				m.InsertTxA(tx, 500, 1)
				var got []uint64
				m.RangeTx(tx, 490, 510, func(k, _ uint64) bool {
					got = append(got, k)
					return true
				})
				if len(got) != 1 || got[0] != 500 {
					t.Errorf("RangeTx missed own insert: %v", got)
				}
				m.DeleteTx(tx, 500)
			})
			if m.Contains(th, 500) {
				t.Fatal("net-noop transaction left residue")
			}
		})
	}
}

func TestLabelsMatchPaper(t *testing.T) {
	want := map[Kind]string{
		SF: "SFtree", SFOpt: "Opt SFtree", RB: "RBtree", AVL: "AVLtree", NR: "NRtree",
	}
	for k, w := range want {
		if k.Label() != w {
			t.Errorf("%s label = %s, want %s", k, k.Label(), w)
		}
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic")
		}
	}()
	New(Kind("bogus"), stm.New())
}

func TestRotationsExposure(t *testing.T) {
	s := stm.New()
	for _, kind := range []Kind{SF, SFOpt, RB, NR} {
		m := New(kind, s)
		if _, ok := Rotations(m); !ok {
			t.Errorf("%s should expose rotations", kind)
		}
	}
	if _, ok := Rotations(New(AVL, s)); ok {
		t.Error("AVL unexpectedly exposes rotations")
	}
}

func TestAtomicDemotesElasticForUnsafeTrees(t *testing.T) {
	s := stm.New(stm.WithMode(stm.Elastic))
	// RB/AVL mutate keys in place; SFOpt pins three candidate reads (one
	// more than the elastic window) — all three must demote.
	for _, kind := range []Kind{RB, AVL, SFOpt} {
		m := New(kind, s)
		if ElasticSafe(m) {
			t.Fatalf("%s must not be elastic-safe", kind)
		}
		th := s.NewThread()
		var mode stm.Mode
		Atomic(m, th, func(tx *stm.Tx) { mode = tx.Mode() })
		if mode != stm.CTL {
			t.Fatalf("%s composed tx ran in %v, want CTL", kind, mode)
		}
	}
	for _, kind := range []Kind{SF, NR} {
		m := New(kind, s)
		if !ElasticSafe(m) {
			t.Fatalf("%s should be elastic-safe", kind)
		}
		th := s.NewThread()
		var mode stm.Mode
		Atomic(m, th, func(tx *stm.Tx) { mode = tx.Mode() })
		if mode != stm.Elastic {
			t.Fatalf("%s composed tx ran in %v, want Elastic", kind, mode)
		}
	}
}

// TestMoveElasticNoHalfCommit is the regression test for a value-loss bug
// in the composed Move under elastic transactions: the ContainsTx(dst)
// absence check is a cut read (exempt from commit validation), so when a
// concurrent insert occupied dst between the check and the insert, Move
// used to commit the buffered src delete while the dst insert had failed —
// silently dropping the moved value. Move now restarts the transaction in
// that state. A token bounces between two keys while an interferer makes
// dst transiently occupied; the token must never be lost.
func TestMoveElasticNoHalfCommit(t *testing.T) {
	s := stm.New(stm.WithMode(stm.Elastic), stm.WithYield(2))
	m := New(SF, s) // portable SF is elastic-safe, so Move runs elastic
	const a, b = uint64(10), uint64(20)
	const V, W = uint64(1), uint64(2)

	seed := s.NewThread()
	m.Insert(seed, a, V)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // interferer: makes b transiently occupied by its own W
		defer wg.Done()
		th := s.NewThread()
		for !stop.Load() {
			if m.Insert(th, b, W) {
				m.Delete(th, b)
			}
		}
	}()
	wg.Add(1)
	go func() { // mover: bounces the V token between a and b
		defer wg.Done()
		th := s.NewThread()
		for !stop.Load() {
			if !Move(m, th, a, b) {
				Move(m, th, b, a)
			}
		}
	}()
	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	th := s.NewThread()
	va, oka := m.Get(th, a)
	vb, okb := m.Get(th, b)
	hasV := (oka && va == V) || (okb && vb == V)
	if !hasV {
		t.Fatalf("token lost: a=(%d,%v) b=(%d,%v)", va, oka, vb, okb)
	}
}

func TestMoveOnAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		s := stm.New()
		m := New(kind, s)
		th := s.NewThread()
		m.Insert(th, 1, 11)
		m.Insert(th, 2, 22)
		if Move(m, th, 9, 3) {
			t.Fatalf("%s: move of absent key succeeded", kind)
		}
		if Move(m, th, 1, 2) {
			t.Fatalf("%s: move onto occupied key succeeded", kind)
		}
		if !Move(m, th, 1, 3) {
			t.Fatalf("%s: legitimate move failed", kind)
		}
		if v, ok := m.Get(th, 3); !ok || v != 11 {
			t.Fatalf("%s: moved value (%d,%v)", kind, v, ok)
		}
		if !Move(m, th, 2, 2) {
			t.Fatalf("%s: self-move of present key failed", kind)
		}
		if m.Size(th) != 2 {
			t.Fatalf("%s: size %d after moves", kind, m.Size(th))
		}
	}
}

// TestSetTxOnAllKinds: every registry tree provides a native SetTx upsert
// (sftree directly, rb/avl natively, nr via embedding) — the write-replay
// entry point of ftx's commit transaction. Upserting must overwrite a
// present key in place, insert an absent one, and resurrect a logically
// deleted one, all composably inside an enclosing transaction.
func TestSetTxOnAllKinds(t *testing.T) {
	type setter interface {
		SetTx(tx *stm.Tx, k, v uint64)
	}
	for _, kind := range Kinds() {
		s := stm.New()
		m := New(kind, s)
		th := s.NewThread()
		st, ok := m.(setter)
		if !ok {
			t.Fatalf("%s: no native SetTx", kind)
		}
		m.Insert(th, 1, 11)
		m.Insert(th, 2, 22)
		m.Delete(th, 2) // logical on the sf family, physical on rb/avl
		Atomic(m, th, func(tx *stm.Tx) {
			st.SetTx(tx, 1, 100) // overwrite in place
			st.SetTx(tx, 2, 200) // resurrect / reinsert
			st.SetTx(tx, 3, 300) // fresh insert
		})
		for k, want := range map[uint64]uint64{1: 100, 2: 200, 3: 300} {
			if v, ok := m.Get(th, k); !ok || v != want {
				t.Fatalf("%s: key %d = (%d,%v), want %d", kind, k, v, ok, want)
			}
		}
		if n := m.Size(th); n != 3 {
			t.Fatalf("%s: size %d after upserts, want 3", kind, n)
		}
	}
}
