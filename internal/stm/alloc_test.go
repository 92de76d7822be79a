package stm

import "testing"

// testAlloc is an Allocator that tracks which references are live.
type testAlloc struct {
	next uint64
	live map[uint64]bool
}

func (a *testAlloc) Alloc(k, v uint64) uint64 {
	a.next++
	a.live[a.next] = true
	return a.next
}

func (a *testAlloc) Free(ref uint64) {
	if !a.live[ref] {
		panic("testAlloc: free of a reference that is not live")
	}
	delete(a.live, ref)
}

// TestAllocLog: a node taken with Tx.Alloc stays allocated exactly when the
// attempt that took it commits. Every way an attempt can end without
// committing — an explicit abort, a commit-time rollback, a foreign panic,
// a failed or dropped prepared transaction — gives its nodes back.
func TestAllocLog(t *testing.T) {
	s := New()
	th, other := s.NewThread(), s.NewThread()
	a := &testAlloc{live: map[uint64]bool{}}
	var link, w Word
	// body allocates a node and links it; attempts counts its runs.
	attempts := 0
	body := func(tx *Tx) uint64 {
		attempts++
		ref := tx.Alloc(a, 1, 2)
		tx.Write(&link, ref)
		return ref
	}
	expect := func(name string, live ...uint64) {
		t.Helper()
		if len(a.live) != len(live) {
			t.Fatalf("%s: %d nodes live, want %d", name, len(a.live), len(live))
		}
		for _, r := range live {
			if !a.live[r] {
				t.Fatalf("%s: node %d freed, want it kept", name, r)
			}
		}
	}

	var kept uint64
	th.Atomic(func(tx *Tx) { kept = body(tx) })
	expect("commit", kept)

	attempts = 0
	var second uint64
	th.Atomic(func(tx *Tx) {
		r := body(tx)
		body(tx) // two nodes in one attempt
		if attempts == 2 {
			tx.Restart()
		}
		second = r
	})
	if attempts != 4 {
		t.Fatalf("explicit abort: %d body runs, want 4", attempts)
	}
	expect("explicit abort", kept, second, second+1)
	kept2 := []uint64{kept, second, second + 1}

	// A commit-time rollback: the first attempt's read of w goes stale
	// before it commits.
	attempts = 0
	var third uint64
	th.Atomic(func(tx *Tx) {
		tx.Read(&w)
		if attempts == 0 {
			other.Atomic(func(tx *Tx) { tx.Write(&w, tx.Read(&w)+1) })
		}
		third = body(tx)
	})
	if attempts != 2 {
		t.Fatalf("rollback: %d body runs, want 2", attempts)
	}
	kept2 = append(kept2, third)
	expect("rollback", kept2...)

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the foreign panic", r)
			}
		}()
		th.Atomic(func(tx *Tx) {
			body(tx)
			panic("boom")
		})
	}()
	expect("foreign panic", kept2...)

	p, ok := th.Prepare(func(tx *Tx) { body(tx) })
	if !ok {
		t.Fatal("Prepare aborted")
	}
	p.Drop()
	expect("Drop", kept2...)

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the foreign panic", r)
			}
		}()
		th.Prepare(func(tx *Tx) {
			body(tx)
			panic("boom")
		})
	}()
	expect("foreign panic in Prepare", kept2...)

	if _, ok := th.Prepare(func(tx *Tx) {
		body(tx)
		tx.Restart()
	}); ok {
		t.Fatal("Prepare of a restarting attempt succeeded")
	}
	expect("aborted Prepare", kept2...)

	var fifth uint64
	p, ok = th.Prepare(func(tx *Tx) { fifth = body(tx) })
	if !ok {
		t.Fatal("Prepare aborted")
	}
	p.Finalize()
	expect("Finalize", append(kept2, fifth)...)
}
