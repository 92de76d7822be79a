package main

import (
	"fmt"
	"time"
)

// clients is the number of closed-loop client goroutines every workload
// runs (one repro.Handle each): the host has two cores, and a third load
// generator would only measure the scheduler.
const clients = 2

type opKind uint8

const (
	opGet opKind = iota
	opContains
	opInsert
	opDelete
	opMove
	opRange
	opTransfer
	opAudit
	numOpKinds
	// opUpdate appears only in a mix: the generator turns it into opInsert
	// and opDelete alternately, so every update is effective.
	opUpdate
)

var opNames = [numOpKinds]string{"get", "contains", "insert", "delete", "move", "range", "transfer", "audit"}

// Latency classes of the end-to-end metrics.
const (
	classRead = iota
	classWrite
	classScan
	numClasses
)

var classOf = [numOpKinds]int{
	opGet: classRead, opContains: classRead, opAudit: classRead,
	opInsert: classWrite, opDelete: classWrite, opMove: classWrite, opTransfer: classWrite,
	opRange: classScan,
}

const (
	expectUnknown = iota // the key belongs to the other client: outcome races
	expectPresent
	expectAbsent
)

// op is one generated operation. Keys fit 32 bits in every workload, which
// keeps the ladder's pre-generated 2²⁰-op stream at 20 MB.
type op struct {
	kind   opKind
	expect uint8
	k      [4]uint32
}

type mixEntry struct {
	kind opKind
	upto int // cumulative percentage
}

// workload describes one benchmark workload: the tree it runs on, the
// prefill, and the op mix. See README.md for why each exists.
type workload struct {
	name     string
	why      string
	round    time.Duration // measured time each tree of a run gets (see plan)
	shards   int           // 1 = NewTree defaults (the paper's single STM domain)
	durable  bool          // repro.Open with a WAL and periodic checkpoints
	keyRange uint64
	fillAll  bool   // prefill every key; otherwise exactly half of them
	initVal  uint64 // value of prefilled keys; 0 means value = key
	biased   bool   // paper's skew: inserts high, deletes and lookups low, by U[0..9]
	rangeLen uint64
	mix      []mixEntry
	// walkRate is the nominal rate, in hops per ns, of the reference walk
	// over this workload's footprint (run.go): the median measured on this
	// host in its fast regime. End-to-end numbers are scaled to it.
	walkRate float64
}

var workloads = []*workload{
	{
		name:     "paper-u20",
		walkRate: 0.0080,
		round:    2 * time.Second,
		why:      "paper's integer-set micro-benchmark (2^12 keys, 20% effective updates): cache-resident, stm+sftree do all the work",
		shards:   1,
		keyRange: 1 << 13,
		mix:      []mixEntry{{opUpdate, 20}, {opGet, 100}},
	},
	{
		name:     "biased-churn",
		walkRate: 0.0080,
		round:    2 * time.Second,
		why:      "same tree, write side: 40% biased updates, moves and scans, so rotations, removals and maintenance compete with clients",
		shards:   1,
		keyRange: 1 << 13,
		biased:   true,
		rangeLen: 100,
		mix:      []mixEntry{{opUpdate, 40}, {opMove, 50}, {opRange, 55}, {opContains, 100}},
	},
	{
		name:     "xshard-transfer",
		walkRate: 0.0080,
		round:    2 * time.Second,
		why:      "8 shards, 2^16 static keys: 20% 4-key 2PC transfers and 10% read-only audits beside 70% gets, so ftx and stm prepare dominate",
		shards:   8,
		keyRange: 1 << 16,
		fillAll:  true,
		initVal:  1000,
		mix:      []mixEntry{{opTransfer, 20}, {opAudit, 30}, {opGet, 100}},
	},
	{
		name:     "durable-large",
		walkRate: 0.0059,
		round:    4 * time.Second,
		why:      "WAL-backed 8-shard tree of 2^19 keys (beyond cache), 50% updates: durable append/flush/checkpoint and cache-miss traversal dominate",
		shards:   8,
		durable:  true,
		keyRange: 1 << 20,
		mix:      []mixEntry{{opUpdate, 50}, {opGet, 100}},
	},
}

// The traced run of every workload borrows two of them: paper-u20's stream
// for the obs on/off replays, durable-large's key set for sftree.get_ns_large.
var paperWorkload, largeWorkload = workloads[0], workloads[3]

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns a copy of w with its key range divided by div (the -quick
// pass), never below what a 4-key transfer and a 100-key scan need.
func (w *workload) scaled(div uint64) *workload {
	c := *w
	c.keyRange = max(w.keyRange/div, 1<<10)
	return &c
}

// static reports that the workload never inserts or deletes, so every key
// stays present and every client knows it.
func (w *workload) static() bool {
	for _, m := range w.mix {
		if m.kind == opUpdate || m.kind == opMove {
			return false
		}
	}
	return true
}

// value is the value an insert of k stores.
func (w *workload) value(k uint64) uint64 {
	if w.initVal != 0 {
		return w.initVal
	}
	return k
}

// gen produces one client's op stream from the seed, on the fly. Each
// client owns the keys congruent to its index modulo clients and is the only
// one to insert, delete or move them, so the generator can keep an exact
// model of its own keys (one bit each) and every update it emits is
// effective — an insert of an absent key, a delete of a present one — and
// every read of an own key has a known outcome the harness checks.
type gen struct {
	w          *workload
	rng        uint64
	client     uint64
	own        uint64   // number of own keys
	static     bool     // w.static(), hoisted out of next
	present    []uint64 // bit i: own key i*clients+client is in the tree
	insertNext bool
}

func newGen(w *workload, seed uint64, client int) *gen {
	g := &gen{w: w, client: uint64(client), own: w.keyRange / clients, static: w.static(), insertNext: true}
	// splitmix64 of (seed, client) so neighbouring seeds give unrelated streams.
	z := seed*0x9e3779b97f4a7c15 + uint64(client+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	g.rng = z ^ z>>31 | 1
	g.present = make([]uint64, (g.own+63)/64)
	return g
}

func (g *gen) rand() uint64 {
	x := g.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	g.rng = x
	return x * 0x2545f4914f6cdd1d
}

func (g *gen) has(i uint64) bool { return g.present[i>>6]&(1<<(i&63)) != 0 }
func (g *gen) set(i uint64)      { g.present[i>>6] |= 1 << (i & 63) }
func (g *gen) clear(i uint64)    { g.present[i>>6] &^= 1 << (i & 63) }
func (g *gen) key(i uint64) uint32 {
	return uint32(i*clients + g.client)
}

// prefill marks the client's initial keys present and returns them in the
// random order the set-up inserts them in.
func (g *gen) prefill() []uint32 {
	idx := make([]uint64, g.own)
	for i := range idx {
		idx[i] = uint64(i)
	}
	for i := len(idx) - 1; i > 0; i-- {
		j := g.rand() % uint64(i+1)
		idx[i], idx[j] = idx[j], idx[i]
	}
	if !g.w.fillAll {
		idx = idx[:len(idx)/2]
	}
	keys := make([]uint32, len(idx))
	for n, i := range idx {
		g.set(i)
		keys[n] = g.key(i)
	}
	return keys
}

// skew draws a uniform index below n and, on a biased workload, moves it up
// (inserts) or down (deletes, lookups) by U[0..9], clamped to the range.
func (g *gen) skew(n uint64, up bool) uint64 {
	r := g.rand()
	i := r % n
	if !g.w.biased {
		return i
	}
	d := (r >> 40) % 10
	if up {
		return min(i+d, n-1)
	}
	if i < d {
		return 0
	}
	return i - d
}

// ownIndex draws an own key that is present (want) or absent (!want).
func (g *gen) ownIndex(want, up bool) uint64 {
	for tries := 0; tries < 256; tries++ {
		if i := g.skew(g.own, up); g.has(i) == want {
			return i
		}
	}
	// Not reached at the fill ratios the workloads keep; a linear probe
	// keeps the stream well defined anyway.
	for i := g.rand() % g.own; ; i = (i + 1) % g.own {
		if g.has(i) == want {
			return i
		}
	}
}

func (g *gen) next(o *op) {
	r := g.rand()
	p := int(r % 100)
	kind := opGet
	for _, m := range g.w.mix {
		if p < m.upto {
			kind = m.kind
			break
		}
	}
	o.expect = expectUnknown
	switch kind {
	case opGet, opContains:
		k := g.skew(g.w.keyRange, false)
		o.k[0] = uint32(k)
		switch {
		case g.static:
			o.expect = expectPresent
		case k%clients == g.client:
			o.expect = expectAbsent
			if g.has(k / clients) {
				o.expect = expectPresent
			}
		}
	case opUpdate:
		if g.insertNext {
			i := g.ownIndex(false, true)
			g.set(i)
			kind, o.k[0] = opInsert, g.key(i)
		} else {
			i := g.ownIndex(true, false)
			g.clear(i)
			kind, o.k[0] = opDelete, g.key(i)
		}
		g.insertNext = !g.insertNext
	case opMove:
		src, dst := g.ownIndex(true, false), g.ownIndex(false, true)
		g.clear(src)
		g.set(dst)
		o.k[0], o.k[1] = g.key(src), g.key(dst)
	case opRange:
		o.k[0] = uint32(g.rand() % g.w.keyRange)
	case opTransfer, opAudit:
		for n := 0; n < len(o.k); {
			k := uint32(g.rand() % g.w.keyRange)
			dup := false
			for _, have := range o.k[:n] {
				dup = dup || have == k
			}
			if !dup {
				o.k[n] = k
				n++
			}
		}
	}
	o.kind = kind
}
