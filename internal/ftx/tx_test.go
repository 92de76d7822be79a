package ftx

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// modDomain is a test Domain of n trees of one STM routed by k mod n, so a
// test picks a key's shard by arithmetic.
type modDomain struct{ Domain }

func newModDomain(n int) *modDomain {
	s := stm.New()
	d := &modDomain{Domain{Thread: s.NewThread()}}
	for i := 0; i < n; i++ {
		d.Maps = append(d.Maps, trees.New(trees.SFOpt, s))
	}
	d.ShardOf = func(k uint64) int { return int(k % uint64(n)) }
	return d
}

// get reads k outside any ftx transaction.
func (d *modDomain) get(k uint64) (uint64, bool) {
	return d.Maps[d.ShardOf(k)].Get(d.Thread, k)
}

// TestNewCoordinatorRejectsForeignSTM: a domain whose maps live in another
// STM than its thread cannot commit atomically — its commit would validate
// against the wrong clock — so construction must refuse it.
func TestNewCoordinatorRejectsForeignSTM(t *testing.T) {
	d := newModDomain(2)
	d.Maps[1] = trees.New(trees.SFOpt, stm.New())
	if msg := mustPanic(t, "NewCoordinator", func() { NewCoordinator(d.Domain) }); !strings.HasPrefix(msg, "ftx: ") {
		t.Fatalf("panicked with %q, want an ftx: message", msg)
	}
}

// TestKeyLogScanToIndex grows a log from scanned to indexed, checking
// lookups at every size, that the index is what answers them above
// logScanMax (the guard against a large transaction going quadratic), and
// that reset leaves it usable.
func TestKeyLogScanToIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var l keyLog
	for round := 0; round < 3; round++ {
		keys := map[uint64]uint64{}
		for len(keys) < 700 {
			k := rng.Uint64() >> uint(rng.Intn(64)) // all magnitudes, 0 included
			if len(keys) == 0 {
				k = 1
			}
			if _, dup := keys[k]; dup {
				continue
			}
			keys[k] = uint64(len(keys))
			l.add(keyState{key: k, val: keys[k], present: true})
			n := len(l.recs)
			if l.indexed != (n > logScanMax) {
				t.Fatalf("round %d: %d entries, indexed = %t", round, n, l.indexed)
			}
			if l.indexed && len(l.pos) != n {
				t.Fatalf("round %d: %d entries, %d indexed", round, n, len(l.pos))
			}
			if n > 2*logScanMax && n%97 != 0 {
				continue
			}
			for k, v := range keys {
				if s := l.find(k); s == nil || s.val != v {
					t.Fatalf("round %d: %d entries: find(%d) = %v, want val %d", round, n, k, s, v)
				}
			}
			absent := rng.Uint64()
			for _, in := keys[absent]; in; _, in = keys[absent] {
				absent++
			}
			if s := l.find(absent); s != nil {
				t.Fatalf("round %d: %d entries: find of absent %d = %v", round, n, absent, *s)
			}
		}
		l.find(1).val = 7 // entries are updated in place
		if s := l.find(1); s == nil || s.val != 7 {
			t.Fatalf("round %d: find after update = %v", round, s)
		}
		l.reset()
		if l.find(1) != nil {
			t.Fatalf("round %d: reset log still finds a key", round)
		}
	}
}

// TestParticipantsOrder drives random interleavings of reads, writes and
// deletes through the Tx and checks the footprint the commit transaction
// replays: the read log holds exactly the keys read through (not served by
// the write buffer), the write buffer exactly the keys written, each in
// first-touch order and tagged with its owning shard, and multi tells one
// shard from several.
func TestParticipantsOrder(t *testing.T) {
	const shards = 5
	d := newModDomain(shards)
	c := NewCoordinator(d.Domain)
	tx := &c.tx
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		tx.begin()
		var reads, writes []uint64
		read, written, touched := map[uint64]bool{}, map[uint64]bool{}, map[int]bool{}
		span := uint64(1 + rng.Intn(60)) // small spans force read+written and rewritten keys
		for i, n := 0, rng.Intn(80); i < n; i++ {
			k := uint64(rng.Intn(int(span)))
			touched[d.ShardOf(k)] = true
			op := rng.Intn(4)
			if op == 1 || op == 2 {
				tx.Put(k, uint64(i))
				if !written[k] {
					written[k] = true
					writes = append(writes, k)
				}
				continue
			}
			if op == 0 {
				tx.Get(k)
			} else {
				// Absent everywhere: Delete logs the read and buffers nothing,
				// unless a buffered put is there to delete.
				tx.Delete(k)
			}
			if !written[k] && !read[k] {
				read[k] = true
				reads = append(reads, k)
			}
		}
		check := func(what string, recs []keyState, want []uint64) {
			if len(recs) != len(want) {
				t.Fatalf("round %d: %d %s, want %d", round, len(recs), what, len(want))
			}
			for i, r := range recs {
				if r.key != want[i] || int(r.shard) != d.ShardOf(r.key) {
					t.Fatalf("round %d: %s[%d] = key %d shard %d, want key %d shard %d",
						round, what, i, r.key, r.shard, want[i], d.ShardOf(want[i]))
				}
			}
		}
		check("reads", tx.reads.recs, reads)
		check("writes", tx.writes.recs, writes)
		if tx.multi != (len(touched) > 1) {
			t.Fatalf("round %d: multi = %t with %d shards touched", round, tx.multi, len(touched))
		}
		tx.end()
	}
}

// mustPanic runs f and returns the message it panicked with.
func mustPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, _ = r.(string)
	}()
	f()
	return ""
}

// transfer moves one unit from a to b on c and checks the commit.
func transfer(t *testing.T, d *modDomain, c *Coordinator, a, b uint64) {
	t.Helper()
	av, _ := d.get(a)
	bv, _ := d.get(b)
	if err := c.Run(func(tx *Tx) error {
		x, _ := tx.Get(a)
		y, _ := tx.Get(b)
		tx.Put(a, x-1)
		tx.Put(b, y+1)
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if x, _ := d.get(a); x != av-1 {
		t.Fatalf("key %d = %d, want %d", a, x, av-1)
	}
	if y, _ := d.get(b); y != bv+1 {
		t.Fatalf("key %d = %d, want %d", b, y, bv+1)
	}
}

// TestRunNestedPanics: a Run from inside the coordinator's own fn would
// reset the outer transaction's context; it must panic, naming ftx, before
// touching it — whichever shards the inner transaction is after — and leave
// the coordinator usable.
func TestRunNestedPanics(t *testing.T) {
	d := newModDomain(4)
	c := NewCoordinator(d.Domain)
	c.Run(func(tx *Tx) error { tx.Put(0, 100); tx.Put(1, 100); tx.Put(2, 100); return nil })
	for _, inner := range []uint64{0, 2} { // the outer transaction's shard, and another
		msg := mustPanic(t, "nested Run", func() {
			c.Run(func(tx *Tx) error {
				tx.Get(0)
				tx.Put(1, 5)
				return c.Run(func(tx *Tx) error { tx.Get(inner); return nil })
			})
		})
		if !strings.HasPrefix(msg, "ftx: ") {
			t.Fatalf("nested Run panicked with %q, want an ftx: message", msg)
		}
		if v, _ := d.get(1); v != 100 {
			t.Fatalf("key 1 = %d: the abandoned outer transaction applied a write", v)
		}
		transfer(t, d, c, 0, 1)
		transfer(t, d, c, 1, 0)
	}
}

// TestTxDeadAfterFn: a Tx kept past fn is the next transaction's context,
// so every method must refuse it — after a commit and after a user abort.
func TestTxDeadAfterFn(t *testing.T) {
	d := newModDomain(2)
	c := NewCoordinator(d.Domain)
	var kept *Tx
	c.Run(func(tx *Tx) error { kept = tx; tx.Put(1, 1); return nil })
	methods := map[string]func(){
		"Get":      func() { kept.Get(1) },
		"Contains": func() { kept.Contains(1) },
		"Put":      func() { kept.Put(1, 2) },
		"Insert":   func() { kept.Insert(3, 2) },
		"Delete":   func() { kept.Delete(1) },
	}
	for name, call := range methods {
		if msg := mustPanic(t, name+" after fn returned", call); !strings.HasPrefix(msg, "ftx: ") {
			t.Fatalf("%s panicked with %q, want an ftx: message", name, msg)
		}
	}
	c.Run(func(tx *Tx) error { return errors.New("skip") })
	mustPanic(t, "Get after a user abort", methods["Get"])
	if v, ok := d.get(1); !ok || v != 1 {
		t.Fatalf("key 1 = %d,%t: a refused call got through", v, ok)
	}
}

// TestRunSurvivesForeignPanics: a panic that is not the STM's — out of fn
// with the snapshot session open, or out of the commit transaction with
// earlier writes applied and locked — must leave nothing behind: the same
// coordinator (after the first), and another one sharing the trees, commit
// over the same keys straight afterwards.
func TestRunSurvivesForeignPanics(t *testing.T) {
	d := newModDomain(4)
	c := NewCoordinator(d.Domain)
	// other is a second client of the same trees, with a thread of its own.
	od := &modDomain{d.Domain}
	od.Thread = d.Thread.STM().NewThread()
	other := NewCoordinator(od.Domain)
	c.Run(func(tx *Tx) error { tx.Put(0, 100); tx.Put(1, 100); return nil })

	mustPanic(t, "fn", func() {
		c.Run(func(tx *Tx) error {
			tx.Get(0)
			tx.Get(1) // two sessions open
			tx.Put(0, 1)
			panic("boom")
		})
	})
	transfer(t, d, c, 0, 1)
	transfer(t, od, other, 1, 0)

	// sftree.MaxKey panics inside applyWrites, after the writes to keys 0
	// and 1 were applied. The follow-ups run on the other coordinator: what
	// the STM promises after a foreign panic is that no lock stays behind,
	// not that the panicking thread is usable.
	msg := mustPanic(t, "commit of a tree-reserved key", func() {
		c.Run(func(tx *Tx) error {
			x, _ := tx.Get(0)
			tx.Put(0, x+1)
			tx.Put(1, 7)
			tx.Put(sftree.MaxKey, 1)
			return nil
		})
	})
	if !strings.HasPrefix(msg, "sftree: ") {
		t.Fatalf("panicked with %q, want the tree's own panic", msg)
	}
	if v, _ := od.get(0); v != 100 {
		t.Fatalf("key 0 = %d, want 100: the panicking commit published", v)
	}
	transfer(t, od, other, 0, 1) // would spin on a leaked word lock
	transfer(t, od, other, 1, 0)
	if st := c.Stats(); st.Commits != 2 {
		t.Fatalf("stats %+v, want 2 commits", st)
	}
}

// TestSingleZeroAllocs: on the degenerate one-shard domain — the facade's
// unsharded Atomic, and the benchmark ladder's lowest ftx rung — a warmed-up
// transaction allocates nothing (see the forest package for the sharded
// paths; the body is hoisted, a literal per call is the caller's own
// allocation).
func TestSingleZeroAllocs(t *testing.T) {
	s := stm.New()
	m := trees.New(trees.SFOpt, s)
	th := s.NewThread()
	for k := uint64(0); k < 64; k++ {
		m.Insert(th, k*37%64, 1000)
	}
	c := NewCoordinator(Single(m, th))
	body := func(tx *Tx) error {
		a, _ := tx.Get(3)
		b, _ := tx.Get(40)
		tx.Get(17)
		tx.Get(58)
		tx.Put(3, a-1)
		tx.Put(40, b+1)
		return nil
	}
	op := func() { c.Run(body) }
	op()
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("Single-domain transfer allocates %.2f times per run, want 0", avg)
	}
}
