package ftx

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// modDomain is a test Domain of n independent (STM domain, tree) shards
// routed by k mod n, so a test picks a key's shard by arithmetic. lookups
// counts Shard calls per shard.
type modDomain struct {
	shards  []Shard
	lookups []int
}

func newModDomain(n int) *modDomain {
	d := &modDomain{lookups: make([]int, n)}
	for i := 0; i < n; i++ {
		s := stm.New()
		d.shards = append(d.shards, Shard{Map: trees.New(trees.SFOpt, s), Thread: s.NewThread(), Intents: &IntentTable{}})
	}
	return d
}

func (d *modDomain) Shards() int          { return len(d.shards) }
func (d *modDomain) ShardOf(k uint64) int { return int(k % uint64(len(d.shards))) }
func (d *modDomain) Shard(si int) Shard   { d.lookups[si]++; return d.shards[si] }

// get reads k outside any ftx transaction.
func (d *modDomain) get(k uint64) (uint64, bool) {
	sh := d.shards[d.ShardOf(k)]
	return sh.Map.Get(sh.Thread, k)
}

// TestKeyLogScanToIndex grows a log from scanned to indexed, checking
// lookups at every size, that the index is what answers them above
// logScanMax (the guard against a large transaction going quadratic), and
// that reset and sort leave it usable.
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
		l.sortByKey()
		if !slices.IsSortedFunc(l.recs, func(a, b keyState) int { return cmp.Compare(a.key, b.key) }) {
			t.Fatalf("round %d: not sorted by key", round)
		}
		if l.indexed || len(l.pos) != 0 {
			t.Fatalf("round %d: sort kept %d stale positions", round, len(l.pos))
		}
		if s := l.find(1); s == nil || s.val != 7 {
			t.Fatalf("round %d: find after sort = %v", round, s)
		}
		l.reset()
		if l.find(1) != nil {
			t.Fatalf("round %d: reset log still finds a key", round)
		}
	}
}

// TestParticipantsOrder drives random interleavings of reads, writes and
// deletes through the Tx and checks the builder's whole contract: shards
// ascending; each shard's reads, writes and touched ascending; reads and
// writes exactly the keys read through and written; touched their
// duplicate-free union; one Shard lookup per participating shard.
func TestParticipantsOrder(t *testing.T) {
	const shards = 5
	d := newModDomain(shards)
	c := NewCoordinator(d)
	tx := &c.tx
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 200; round++ {
		clear(d.lookups)
		tx.begin()
		read, written := map[uint64]bool{}, map[uint64]bool{}
		span := uint64(1 + rng.Intn(60)) // small spans force read+written and rewritten keys
		for i, n := 0, rng.Intn(80); i < n; i++ {
			k := uint64(rng.Intn(int(span)))
			switch rng.Intn(4) {
			case 0:
				tx.Get(k)
				read[k] = read[k] || !written[k]
			case 1, 2:
				tx.Put(k, uint64(i))
				written[k] = true
			default:
				// Absent everywhere: Delete logs the read and buffers nothing,
				// unless a buffered put is there to delete.
				tx.Delete(k)
				read[k] = read[k] || !written[k]
			}
		}
		parts := tx.participants()

		keysOf := func(recs []keyState) []uint64 {
			var ks []uint64
			for _, r := range recs {
				ks = append(ks, r.key)
			}
			return ks
		}
		want := func(set map[uint64]bool, si int) []uint64 {
			var ks []uint64
			for k, in := range set {
				if in && d.ShardOf(k) == si {
					ks = append(ks, k)
				}
			}
			slices.Sort(ks)
			return ks
		}
		prev := -1
		for _, p := range parts {
			if p.si <= prev {
				t.Fatalf("round %d: shard %d after shard %d", round, p.si, prev)
			}
			prev = p.si
			r, w := want(read, p.si), want(written, p.si)
			if got := keysOf(p.reads.recs); !slices.Equal(got, r) {
				t.Fatalf("round %d shard %d: reads %v, want %v", round, p.si, got, r)
			}
			if got := keysOf(p.writes.recs); !slices.Equal(got, w) {
				t.Fatalf("round %d shard %d: writes %v, want %v", round, p.si, got, w)
			}
			union := slices.Compact(slices.Sorted(slices.Values(append(r, w...))))
			if !slices.Equal(p.touched, union) {
				t.Fatalf("round %d shard %d: touched %v, want %v", round, p.si, p.touched, union)
			}
			if d.lookups[p.si] != 1 {
				t.Fatalf("round %d shard %d: %d Shard lookups in one attempt", round, p.si, d.lookups[p.si])
			}
		}
		for si := 0; si < shards; si++ {
			if enlisted := d.lookups[si] > 0; enlisted != (len(want(read, si))+len(want(written, si)) > 0) {
				t.Fatalf("round %d: shard %d enlisted = %t", round, si, enlisted)
			}
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
	c := NewCoordinator(d)
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
	c := NewCoordinator(d)
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
// with snapshot sessions open, or out of a later shard's prepare with
// intents held and an earlier shard at its lock point — must leave nothing
// behind: the same coordinator, and another one sharing the shards, commit
// over the same keys straight afterwards.
func TestRunSurvivesForeignPanics(t *testing.T) {
	d := newModDomain(4)
	c := NewCoordinator(d)
	// other is a second client of the same shards: threads of its own, the
	// shards' trees and intent tables.
	od := &modDomain{lookups: make([]int, 4)}
	for _, sh := range d.shards {
		od.shards = append(od.shards, Shard{Map: sh.Map, Thread: sh.Thread.STM().NewThread(), Intents: sh.Intents})
	}
	other := NewCoordinator(od)
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

	// sftree.MaxKey lives on the last shard (2⁶⁴-1 ≡ 3 mod 4) and panics
	// inside applyWrites, after shards 0 and 1 have prepared. The follow-ups
	// keep off shard 3: what the STM promises after a foreign panic is that
	// no lock stays behind, not that the panicking thread is usable.
	msg := mustPanic(t, "prepare of a tree-reserved key", func() {
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
	if v, _ := d.get(0); v != 100 {
		t.Fatalf("key 0 = %d, want 100: a dropped shard published", v)
	}
	transfer(t, od, other, 0, 1) // would spin on a leaked intent or word lock
	transfer(t, d, c, 1, 0)
	if st := c.Stats(); st.Commits != 3 {
		t.Fatalf("stats %+v, want 3 commits", st)
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
