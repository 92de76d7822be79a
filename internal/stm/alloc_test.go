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
// attempt that took it commits, and a node handed to Tx.Retire is freed
// exactly when it does. Every way an attempt can end without committing —
// an explicit abort, a commit-time rollback, a foreign panic, a failed or
// dropped prepared transaction — gives its nodes back and forgets its
// retires.
func TestAllocLog(t *testing.T) {
	s := New()
	th, other := s.NewThread(), s.NewThread()
	a := &testAlloc{live: map[uint64]bool{}}
	// victim is a linked node that attempts which do not commit retire.
	victim := a.Alloc(0, 0)
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
	expect("commit", victim, kept)

	attempts = 0
	var second uint64
	th.Atomic(func(tx *Tx) {
		r := body(tx)
		body(tx) // two nodes in one attempt
		if attempts == 2 {
			tx.Retire(a, victim)
			tx.Restart()
		}
		second = r
	})
	if attempts != 4 {
		t.Fatalf("explicit abort: %d body runs, want 4", attempts)
	}
	expect("explicit abort", victim, kept, second, second+1)
	kept2 := []uint64{victim, kept, second, second + 1}

	// A commit-time rollback: the first attempt's read of w goes stale
	// before it commits.
	attempts = 0
	var third uint64
	th.Atomic(func(tx *Tx) {
		tx.Read(&w)
		if attempts == 0 {
			tx.Retire(a, victim)
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

	p, ok := th.Prepare(func(tx *Tx) {
		body(tx)
		tx.Retire(a, victim)
	})
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

	// The limbo held none of those retires: stepping it frees nothing.
	th.Reclaim()
	th.Reclaim()
	expect("retires of attempts that did not commit", kept2...)

	var fifth uint64
	p, ok = th.Prepare(func(tx *Tx) {
		fifth = body(tx)
		tx.Retire(a, victim)
	})
	if !ok {
		t.Fatal("Prepare aborted")
	}
	p.Finalize()
	expect("Finalize", append(kept2, fifth)...)
	th.Reclaim()
	if n := th.Reclaim(); n != 1 {
		t.Fatalf("Finalize: the limbo freed %d nodes, want the retired one", n)
	}
	expect("Finalize, limbo stepped", append(kept2[1:], fifth)...)
}

// retireOne retires ref from a in one committed operation of th.
func retireOne(th *Thread, a Allocator, ref uint64) {
	th.Atomic(func(tx *Tx) { tx.Retire(a, ref) })
}

// TestLimboEpochProtocol: a sealed generation is freed when every other
// thread was idle at its snapshot, and held back while a thread that was
// inside an operation at the snapshot is still in that operation.
func TestLimboEpochProtocol(t *testing.T) {
	s := New()
	th, other := s.NewThread(), s.NewThread()
	a := &testAlloc{live: map[uint64]bool{}}
	retireOne(th, a, a.Alloc(1, 1))
	retireOne(th, a, a.Alloc(2, 2))
	if n := th.Reclaim(); n != 0 {
		t.Fatalf("first step freed %d, want 0 (it seals the generation)", n)
	}
	if n := th.Reclaim(); n != 2 || len(a.live) != 0 {
		t.Fatalf("idle threads: freed %d (%d live), want 2 (0 live)", n, len(a.live))
	}

	retireOne(th, a, a.Alloc(3, 3))
	blocked := make(chan struct{})
	release := make(chan struct{})
	go func() {
		other.Atomic(func(tx *Tx) {
			close(blocked)
			<-release
		})
	}()
	<-blocked
	th.Reclaim() // seals with other inside an operation
	if n := th.Reclaim(); n != 0 {
		t.Fatalf("pending thread: freed %d, want 0", n)
	}
	close(release)
	for other.OpCount() == 0 {
	}
	if n := th.Reclaim(); n != 1 || len(a.live) != 0 {
		t.Fatalf("after the operation completed: freed %d (%d live), want 1 (0 live)", n, len(a.live))
	}
}

// TestLimboOnlyFreesUpToMark: a step frees the generation sealed by the
// step before it, never a node retired after that seal.
func TestLimboOnlyFreesUpToMark(t *testing.T) {
	s := New()
	th := s.NewThread()
	a := &testAlloc{live: map[uint64]bool{}}
	r1 := a.Alloc(1, 1)
	retireOne(th, a, r1)
	th.Reclaim()
	r2 := a.Alloc(2, 2)
	retireOne(th, a, r2)
	if n := th.Reclaim(); n != 1 {
		t.Fatalf("freed %d, want 1 (only the sealed generation)", n)
	}
	if a.live[r1] || !a.live[r2] {
		t.Fatalf("live %v, want only %d", a.live, r2)
	}
}

// TestLimboEmptyGeneration: stepping an empty limbo frees nothing.
func TestLimboEmptyGeneration(t *testing.T) {
	th := New().NewThread()
	for i := 0; i < 2; i++ {
		if n := th.Reclaim(); n != 0 {
			t.Fatalf("step %d freed %d from an empty limbo", i, n)
		}
	}
}

// TestLimboStepsAtBatch: a client thread steps its limbo at the end of an
// operation once its newest generation holds ReclaimBatch nodes, so one
// retire per operation keeps at most two generations; a maintenance thread
// leaves the stepping to its driver.
func TestLimboStepsAtBatch(t *testing.T) {
	s := New()
	client, maint := s.NewThread(), s.NewThread()
	maint.MarkStructural()
	for _, th := range []*Thread{client, maint} {
		a := &testAlloc{live: map[uint64]bool{}}
		for i := 0; i < 10*ReclaimBatch; i++ {
			retireOne(th, a, a.Alloc(1, 1))
			if len(a.live) > 2*ReclaimBatch && th == client {
				t.Fatalf("client: %d retired nodes live after %d operations, want at most %d",
					len(a.live), i+1, 2*ReclaimBatch)
			}
		}
		if th == maint && len(a.live) != 10*ReclaimBatch {
			t.Fatalf("maintenance thread: %d of %d retired nodes live before any step, want all",
				len(a.live), 10*ReclaimBatch)
		}
	}
}
