package sftree

import (
	"math/rand"
	"testing"
)

// TestQuiesceStopsAtFirstCleanPass: Quiesce walks a tree until the first
// pass that makes no rotation and no removal, and not once more. On a
// random-filled tree with deletions it walks exactly as often as a twin
// driven pass by pass needs passes with structural work, plus the clean
// one; what those passes retired is freed by stepping the limbo, so the
// tree still ends garbage-free; and a second Quiesce of the settled tree
// walks it once.
func TestQuiesceStopsAtFirstCleanPass(t *testing.T) {
	const n = 1 << 12
	for _, v := range variants() {
		fill := func() *Tree {
			tr, th := newTree(t, v)
			rng := rand.New(rand.NewSource(47))
			for _, k := range rng.Perm(n) {
				tr.Insert(th, uint64(k), uint64(k))
			}
			for _, k := range rng.Perm(n)[:n/4] {
				tr.Delete(th, uint64(k))
			}
			return tr
		}

		twin, structural := fill(), uint64(0)
		for {
			before := twin.Stats()
			twin.RunMaintenancePass()
			after := twin.Stats()
			if after.Rotations == before.Rotations && after.Removals == before.Removals {
				break
			}
			structural++
		}
		if structural < 2 {
			t.Fatalf("[%v] the fill needs %d structural passes; too few to tell", v, structural)
		}

		tr := fill()
		if !tr.Quiesce(1 << 10) {
			t.Fatalf("[%v] did not quiesce", v)
		}
		if got := tr.Stats().Passes; got != structural+1 {
			t.Errorf("[%v] Quiesce walked %d passes, want %d structural + 1 clean", v, got, structural)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("[%v] %v", v, err)
		}
		if live, reachable := tr.Arena().Live(), uint64(1+tr.PhysicalSize()); live != reachable {
			t.Errorf("[%v] arena holds %d nodes, %d reachable", v, live, reachable)
		}

		settled := tr.Stats().Passes
		if !tr.Quiesce(1 << 10) {
			t.Fatalf("[%v] settled tree did not quiesce", v)
		}
		if got := tr.Stats().Passes - settled; got != 1 {
			t.Errorf("[%v] Quiesce of a settled tree walked %d passes, want 1", v, got)
		}
	}
}
