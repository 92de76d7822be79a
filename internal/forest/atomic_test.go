package forest

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ftx"
	"repro/internal/stm"
	"repro/internal/trees"
)

// TestAtomicUserAbortOnOneSnapshot: an Atomic whose fn returns an error
// must have decided it on one consistent snapshot. Eight keys on eight
// shards hold a fixed sum; two Update shufflers move amounts between them,
// conserving it, while an auditor's fn returns an error whenever the sum it
// reads is off. A torn view — reads from before and after a shuffle —
// would surface as that error, returned with nothing validated.
func TestAtomicUserAbortOnOneSnapshot(t *testing.T) {
	const (
		nKeys   = 8
		balance = 100
		audits  = 4000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // shufflers beside the auditor
	f := New(trees.SFOpt, WithShards(nKeys), WithoutMaintenance())
	defer f.Close()
	var keys [nKeys]uint64
	used := map[int]bool{}
	for k, n := uint64(0), 0; n < nKeys; k++ {
		if si := f.ShardOf(k); !used[si] {
			used[si] = true
			keys[n] = k
			n++
		}
	}
	seed := f.NewHandle()
	for _, k := range keys {
		seed.Insert(k, balance)
	}

	var stop atomic.Bool
	var shuffles atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := f.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for !stop.Load() {
				a, b := keys[rng.Intn(nKeys)], keys[rng.Intn(nKeys)]
				if a == b {
					continue
				}
				amt := uint64(1 + rng.Intn(10))
				h.Update(func(op *Op) {
					av, _ := op.Get(a)
					bv, _ := op.Get(b)
					if av < amt {
						return
					}
					op.Delete(a)
					op.Insert(a, av-amt)
					op.Delete(b)
					op.Insert(b, bv+amt)
				})
				shuffles.Add(1)
			}
		}(w)
	}

	for shuffles.Load() < 100 { // audit only once both shufflers run
		runtime.Gosched()
	}
	h := f.NewHandle()
	var sum uint64
	audit := func(tx *ftx.Tx) error {
		sum = 0
		for _, k := range keys {
			v, _ := tx.Get(k)
			sum += v
		}
		if sum != nKeys*balance {
			return fmt.Errorf("audit read sum %d, want %d", sum, nKeys*balance)
		}
		return nil
	}
	torn := 0
	var first error
	for i := 0; i < audits; i++ {
		if err := h.Atomic(audit); err != nil {
			if torn++; first == nil {
				first = err
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if torn > 0 {
		t.Fatalf("%d of %d audits returned a user abort decided on a torn view (first: %v)", torn, audits, first)
	}
	if st := h.XactStats(); st.Commits != audits || st.UserAborts != 0 {
		t.Fatalf("audit stats %+v, want %d commits", st, audits)
	}
}

// TestHandleSurvivesPanic: a panic out of a transaction body — an Update's
// fn, or an Atomic's fn running another operation of its own handle — must
// close the operation it opened. The handle then runs further operations,
// and the §3.4 limbo, which waits on every thread of the forest's one STM,
// frees removed nodes again.
func TestHandleSurvivesPanic(t *testing.T) {
	f := New(trees.SFOpt, WithShards(2), WithoutMaintenance())
	defer f.Close()
	h := f.NewHandle()
	for k := uint64(0); k < 64; k++ {
		h.Insert(k, k)
	}
	recovered := func(what string, fn func()) (msg string) {
		t.Helper()
		defer func() {
			if msg, _ = recover().(string); msg == "" {
				t.Fatalf("%s did not panic with a message", what)
			}
		}()
		fn()
		return ""
	}
	if msg := recovered("Update", func() {
		h.Update(func(op *Op) {
			op.Insert(1000, 1)
			panic("boom")
		})
	}); msg != "boom" {
		t.Fatalf("Update panicked with %q, want its fn's panic", msg)
	}
	if h.Contains(1000) {
		t.Fatal("the panicking Update applied its insert")
	}
	if msg := recovered("handle op inside Atomic", func() {
		h.Atomic(func(tx *ftx.Tx) error {
			tx.Put(1001, 1)
			h.Get(1)
			return nil
		})
	}); !strings.HasPrefix(msg, "stm: nested") {
		t.Fatalf("a handle op inside Atomic's fn panicked with %q, want a nested-transaction panic", msg)
	}
	if h.Contains(1001) {
		t.Fatal("the panicking Atomic applied its put")
	}
	if err := h.Atomic(func(tx *ftx.Tx) error {
		v, _ := tx.Get(1)
		tx.Put(1001, v)
		return nil
	}); err != nil || !h.Contains(1001) {
		t.Fatalf("Atomic after the panics: err %v, key present %t", err, h.Contains(1001))
	}

	for k := uint64(0); k < 64; k++ {
		h.Delete(k)
	}
	if h.th.Pending() {
		t.Fatal("the handle's thread reports an operation in flight")
	}
	f.Quiesce(64)
	if st := f.MaintenanceStats(); st.Freed == 0 {
		t.Fatalf("maintenance stats %+v: no removed node was freed", st)
	}
}

// TestAtomicWritesInPlaceBeforeDeletes: on the RB and AVL trees a delete of
// a node with two children moves its successor's key and value into that
// node and unlinks the successor's. One Atomic reads a — b's successor —
// deletes b and puts a new value at a. The commit writes a's value word,
// found by the Get, in place; that write must be buffered before the delete
// copies a's value, or the new value lands in the unlinked node and the old
// one survives.
func TestAtomicWritesInPlaceBeforeDeletes(t *testing.T) {
	type checker interface{ CheckInvariants() error }
	for _, kind := range []trees.Kind{trees.RB, trees.AVL} {
		f := New(kind)
		h := f.NewHandle()
		// Both trees shape these as 20 over 10 and 30, with 25 the left
		// child of 30: b = 20 has two children and a = 25 is its successor.
		for _, k := range []uint64{20, 10, 30, 25} {
			h.Insert(k, k)
		}
		const a, b = 25, 20
		if err := h.Atomic(func(tx *ftx.Tx) error {
			v, _ := tx.Get(a)
			tx.Delete(b)
			tx.Put(a, v+100)
			return nil
		}); err != nil {
			t.Fatalf("%s: Atomic: %v", kind, err)
		}
		if v, ok := h.Get(a); !ok || v != a+100 {
			t.Errorf("%s: Get(%d) = (%d,%t), want %d", kind, a, v, ok, a+100)
		}
		if h.Contains(b) {
			t.Errorf("%s: deleted key %d still present", kind, b)
		}
		for _, k := range []uint64{10, 30} {
			if v, ok := h.Get(k); !ok || v != k {
				t.Errorf("%s: Get(%d) = (%d,%t), want %d", kind, k, v, ok, k)
			}
		}
		if err := f.maps[0].(checker).CheckInvariants(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
		f.Close()
	}
}

// TestUpdateAtomicUnderElastic: Update's fn reads keys and writes values
// computed from them, so every read must be validated at commit, whatever
// the domain's default mode. On a speculation-friendly forest whose
// default is Elastic, four goroutines each run two-key transfers — Get a,
// Get b, then Delete and Insert of each with the moved amount — and the
// balances must still sum to what they were seeded with. Run elastic, the
// Gets' reads are cut before the first write, a concurrent transfer of the
// same account slips in between, and amounts vanish.
func TestUpdateAtomicUnderElastic(t *testing.T) {
	const (
		workers     = 4
		transfers   = 5000
		accounts    = 8
		initBalance = 1000
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	f := New(trees.SF, WithShards(1), WithTMMode(stm.Elastic), WithYield(4))
	defer f.Close()
	seed := f.NewHandle()
	for k := uint64(0); k < accounts; k++ {
		seed.Insert(k, initBalance)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := f.NewHandle()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < transfers; i++ {
				a := uint64(rng.Intn(accounts))
				b := (a + 1 + uint64(rng.Intn(accounts-1))) % accounts
				h.Update(func(op *Op) {
					av, okA := op.Get(a)
					bv, okB := op.Get(b)
					if !okA || !okB || av == 0 {
						return
					}
					op.Delete(a)
					op.Insert(a, av-1)
					op.Delete(b)
					op.Insert(b, bv+1)
				})
			}
		}(w)
	}
	wg.Wait()
	h := f.NewHandle()
	var sum uint64
	for k := uint64(0); k < accounts; k++ {
		v, ok := h.Get(k)
		if !ok {
			t.Fatalf("account %d vanished", k)
		}
		sum += v
	}
	if want := uint64(accounts * initBalance); sum != want {
		t.Fatalf("balances sum to %d, want %d: an Update committed on cut reads", sum, want)
	}
}
