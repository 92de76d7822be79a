package sftree

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/stm"
)

// parentOf walks to k with plain loads and returns its parent and side.
func parentOf(t *testing.T, tr *Tree, k uint64) (arena.Ref, bool) {
	t.Helper()
	p, left := tr.root, true
	for cur := tr.node(p).L.Plain(); cur != arena.Nil; {
		n := tr.node(cur)
		if n.Key.Plain() == k {
			return p, left
		}
		p, left = cur, k < n.Key.Plain()
		if left {
			cur = n.L.Plain()
		} else {
			cur = n.R.Plain()
		}
	}
	t.Fatalf("key %d not in the tree", k)
	return arena.Nil, false
}

// TestStructuralTxZeroAllocs: a rotation or a physical removal — one per
// structural change, tens to hundreds per thousand updates — allocates
// nothing: the transaction bodies are built once per tree and act on the
// tree's structural-op slot (Tree.sop). Arena growth is amortized to zero
// by AllocsPerRun's integer average.
func TestStructuralTxZeroAllocs(t *testing.T) {
	for _, v := range []Variant{Portable, Optimized} {
		s := stm.New()
		tr := New(s, WithVariant(v))
		th := s.NewThread()
		for i := uint64(0); i < 1024; i++ {
			tr.Insert(th, (i*40503&1023)*2, i)
		}
		tr.Quiesce(64)
		const leaf = 1001 // odd: absent, so it lands as a fresh leaf
		remove := func() {
			tr.Insert(th, leaf, 1)
			tr.Delete(th, leaf)
			p, left := parentOf(t, tr, leaf)
			if _, _, ok := tr.removeChild(p, left); !ok {
				t.Fatal("removal of a deleted leaf failed")
			}
		}
		rotate := func() {
			if !tr.rotateRight(tr.root, true) || !tr.rotateLeft(tr.root, true) {
				t.Fatal("rotation at the top of a balanced tree failed")
			}
		}
		for what, op := range map[string]func(){"removal": remove, "rotation pair": rotate} {
			op()
			if avg := testing.AllocsPerRun(200, op); avg != 0 {
				t.Errorf("%v: a %s allocates %.0f times, want 0", v, what, avg)
			}
		}
	}
}
