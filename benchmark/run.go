package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/ftx"
	"repro/internal/sftree"
	"repro/internal/stm"
)

// plan fixes the shape of one run; the -quick pass shrinks all of it
// together.
//
// A run is several rounds, each on a tree of its own: set-up (timed), a
// discarded warm-up, then measured slices. Rounds exist because two trees
// built from the same seed in the same process differ in speed by tens of
// per cent for as long as they live (which physical pages their nodes got,
// how maintenance and the clients happened to fall onto the two cores),
// while slices of one tree agree with each other; a metric is the median
// over all slices of all rounds, so no single tree decides it. A round
// measures for workload.round; the window asked for says how many there are.
type plan struct {
	seed     uint64
	rounds   int
	warmup   time.Duration // per round, discarded
	slices   int           // measured slices per round
	slice    time.Duration
	tail     int    // durable tail: updates logged after the last checkpoint
	reopens  int    // durable tail: timed recoveries of copies of the directory
	outDir   string // where the durable directories and the trace go
	ladderN  int    // calls per ladder step
	spanCap  int    // spans kept per client in a traced run
	traceFor time.Duration
	quick    bool // the -quick pass: about 1/100 size, numbers mean nothing
}

const (
	sampleEvery   = 8       // every 8th op of a client is timed
	quickDiv      = 64      // the -quick pass divides key ranges by this
	quiescePasses = 1 << 10 // upper bound on maintenance passes when quiescing a tree
)

func fullPlan(w *workload, seed uint64, seconds int, outDir string) plan {
	// A slice is as long as durable-large's checkpoint period, so that every
	// slice holds one whole checkpoint cycle and their p99s are comparable.
	p := plan{seed: seed, warmup: 500 * time.Millisecond, slice: time.Second,
		tail: 200_000, reopens: 3, outDir: outDir, ladderN: 1 << 18, spanCap: 1 << 14}
	window := time.Duration(seconds) * time.Second
	p.rounds = max(1, int(window/w.round))
	p.slices = max(1, int(min(window, w.round)/p.slice))
	p.traceFor = window / 4
	return p
}

func quickPlan(seed uint64, outDir string) plan {
	return plan{seed: seed, rounds: 2, warmup: 10 * time.Millisecond, slices: 3, slice: 30 * time.Millisecond,
		tail: 2000, reopens: 2, outDir: outDir, ladderN: 1 << 12, spanCap: 1 << 10, traceFor: 50 * time.Millisecond, quick: true}
}

// env is one set-up tree with the generators that know its contents.
type env struct {
	w    *workload
	tree *repro.Tree
	dir  string // durable directory, "" otherwise
	gens [clients]*gen
}

func (w *workload) open(dir string) (*repro.Tree, error) {
	kind := repro.SpeculationFriendlyOptimized
	if w.durable {
		// The zero DurabilityOptions are the defaults the workload is
		// defined on: 2 ms group commit, a checkpoint every second, deltas on.
		return repro.Open(dir, kind, repro.WithShards(w.shards), repro.WithDurability(repro.DurabilityOptions{}))
	}
	if w.shards > 1 {
		return repro.NewTree(kind, repro.WithShards(w.shards)), nil
	}
	return repro.NewTree(kind), nil
}

// setUp builds the tree of round n: construct, prefill from both clients at
// once (each its own keys, in seeded random order), and quiesce maintenance.
// Every round draws its own streams from the run's seed.
func setUp(w *workload, p plan, n int) (*env, error) {
	e := &env{w: w}
	if w.durable {
		e.dir = filepath.Join(p.outDir, fmt.Sprintf("wal-%s-%d-%d", w.name, os.Getpid(), n))
		if err := os.RemoveAll(e.dir); err != nil {
			return nil, err
		}
	}
	var fill [clients][]uint32
	for c := range e.gens {
		e.gens[c] = newGen(w, p.seed+uint64(n)<<32, c)
		fill[c] = e.gens[c].prefill()
	}
	t, err := w.open(e.dir)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", w.name, err)
	}
	e.tree = t
	var wg sync.WaitGroup
	var bad [clients]int
	for c := range fill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := t.NewHandle()
			for _, k := range fill[c] {
				if !h.Insert(uint64(k), w.value(uint64(k))) {
					bad[c]++
				}
			}
		}()
	}
	wg.Wait()
	t.Maintain(quiescePasses)
	for _, n := range bad {
		if n != 0 {
			e.close()
			return nil, fmt.Errorf("prefill of %s: %d inserts of fresh keys returned false", w.name, n)
		}
	}
	return e, nil
}

func (e *env) close() {
	e.tree.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// client is one closed-loop load generator: it draws an op, runs it, and
// only then draws the next.
type client struct {
	g     *gen
	ex    *executor
	ops   []uint64 // per slice
	lat   [][numClasses]hist
	walk  *walk
	speed []float64       // the walk's hops per ns at the start of each slice
	away  []time.Duration // time each slice lost to the walk
	// Traced runs only.
	spans   []span
	dropped uint64
}

// run executes ops until the last slice ends. Every sampleEvery-th op is
// timed; its start time also says which slice the last sampleEvery ops
// belong to and whether the run is over, so the loop polls nothing else.
func (c *client) run(start time.Time, p plan) {
	var o op
	for {
		for i := 0; i < sampleEvery-1; i++ {
			c.g.next(&o)
			c.ex.do(&o)
		}
		c.g.next(&o)
		t0 := time.Since(start)
		c.ex.do(&o)
		t1 := time.Since(start)
		if t0 < p.warmup {
			continue
		}
		s := int((t0 - p.warmup) / p.slice)
		if s >= p.slices {
			return
		}
		c.ops[s] += sampleEvery
		c.lat[s][classOf[o.kind]].record(uint64(t1 - t0))
		if c.walk != nil && c.speed[s] == 0 {
			c.speed[s], c.away[s] = c.walk.rate(p.slice / 100)
		}
	}
}

// walk is the reference memory walk: a pointer chase through one random
// cycle over an array as large as the client's half of the workload's
// nodes, and never smaller than walkMinBytes. How many hops per nanosecond
// it makes is how fast this host serves a working set of the workload's size
// right now, as seen from the client's own core; the end-to-end metrics are
// scaled by it (see runEndToEnd).
type walk struct {
	next   []uint32
	at     uint32
	blocks []float64 // scratch of rate: ns each block of the current sample took
}

const (
	// nodeBytes is the size of one tree node (arena.Node: three cache lines).
	nodeBytes = 192
	// A sample of the walk is timed block by block and its rate taken from
	// the median block: a client that is descheduled in the middle of a
	// sample (the checkpointer and the maintenance workers share its core)
	// loses whole milliseconds, which would make the sample as a whole read
	// up to twice as slow as its neighbours. The median block does not see
	// them.
	walkBlock     = 1024
	walkMaxBlocks = 1 << 12
	// walkMinBytes keeps the walk out of a core's own L2 (2 MB here) and in
	// the cache the cores share. The two small trees would fit an L2, but
	// both clients and the maintenance goroutine write their nodes, so the
	// lines travel between the cores through the shared cache, and it is the
	// shared cache's speed that a neighbour on the host changes: runs 15 %
	// slow showed 10 % slow on a walk of this size and 1 % on one inside L2.
	walkMinBytes = 8 << 20
)

func newWalk(w *workload, seed uint64) *walk {
	keys := w.keyRange
	if !w.fillAll {
		keys /= 2
	}
	n := max(int(keys*nodeBytes/clients), walkMinBytes) / 4
	k := &walk{next: make([]uint32, n), blocks: make([]float64, 0, walkMaxBlocks)}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	// Sattolo's shuffle: the permutation is a single cycle through all n.
	rng := seed | 1
	for i := n - 1; i > 0; i-- {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		j := int(rng % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// rate walks for about d and returns hops per nanosecond, from the median
// block, and the time taken.
func (k *walk) rate(d time.Duration) (float64, time.Duration) {
	start := time.Now()
	at, prev, blocks := k.at, start, k.blocks[:0]
	for {
		for i := 0; i < walkBlock; i++ {
			at = k.next[at]
		}
		now := time.Now()
		if len(blocks) < cap(blocks) {
			blocks = append(blocks, float64(now.Sub(prev)))
		}
		prev = now
		if now.Sub(start) >= d {
			break
		}
	}
	k.at = at
	slices.Sort(blocks)
	return walkBlock / blocks[len(blocks)/2], time.Since(start)
}

// runTraced is run with a span around every facade call, for p.traceFor.
// The spans go to the client's own preallocated slice; every call is timed
// into the latency histograms whether or not its span is kept.
func (c *client) runTraced(tr *tracer, p plan) {
	var o op
	until := tr.now() + int64(p.traceFor)
	for {
		c.g.next(&o)
		t0 := tr.now()
		c.ex.do(&o)
		t1 := tr.now()
		c.lat[0][classOf[o.kind]].record(uint64(t1 - t0))
		if len(c.spans) < cap(c.spans) {
			c.spans = append(c.spans, span{Name: opNames[o.kind], Start: t0, End: t1})
		} else {
			c.dropped++
		}
		if t1 >= until {
			return
		}
	}
}

// counters is every public statistics accessor read at one instant; a
// phase's per-layer counter metrics are deltas of two of them.
type counters struct {
	stm   stm.Stats
	maint repro.MaintPoolStats
	sf    sftree.Stats
	dur   durable.Stats
	mem   runtime.MemStats
}

func readCounters(t *repro.Tree) counters {
	c := counters{stm: t.Stats(), maint: t.MaintPoolStats(), sf: t.MaintenanceStats()}
	if d := t.Durable(); d != nil {
		c.dur = d.Stats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// phase is the outcome of one client phase (warm-up plus slices, or a
// traced stretch) on one env.
type phase struct {
	clients        [clients]*client
	before, after  counters
	elapsed        time.Duration
	attempted      uint64
	failed         uint64
	updates        uint64 // committed inserts, deletes, moves and transfers
	xact           ftx.Stats
	latencySamples uint64
}

// runClients runs both clients to the end of the plan's slices (taking the
// reference walk at the start of each, when given walks), or, with a tracer,
// for p.traceFor with a span around every call.
func (e *env) runClients(p plan, tr *tracer, walks *[clients]*walk) *phase {
	ph := &phase{}
	handles := make([]*repro.Handle, clients)
	for i := range ph.clients {
		handles[i] = e.tree.NewHandle()
		c := &client{g: e.gens[i], ex: newExecutor(e.w, handles[i])}
		if tr != nil {
			c.spans = make([]span, 0, p.spanCap)
			c.lat = make([][numClasses]hist, 1)
		} else {
			c.ops = make([]uint64, p.slices)
			c.lat = make([][numClasses]hist, p.slices)
			c.speed, c.away = make([]float64, p.slices), make([]time.Duration, p.slices)
			if walks != nil {
				c.walk = walks[i]
			}
		}
		ph.clients[i] = c
	}
	runtime.GC()
	ph.before = readCounters(e.tree)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range ph.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr != nil {
				c.runTraced(tr, p)
			} else {
				c.run(start, p)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.after = readCounters(e.tree)
	for i, c := range ph.clients {
		ph.attempted += c.ex.ops()
		ph.failed += c.ex.failed
		n := c.ex.count
		ph.updates += n[opInsert] + n[opDelete] + n[opMove] + n[opTransfer]
		ph.xact.Add(handles[i].XactStats())
		for s := range c.lat {
			for cl := range c.lat[s] {
				ph.latencySamples += c.lat[s][cl].n
			}
		}
	}
	return ph
}

// sliceStat is one measured slice, clients merged: ops completed, the
// slice's length less what the clients spent on the reference walk, and the
// latency samples by class.
type sliceStat struct {
	ops  uint64
	secs float64
	lat  [numClasses]hist
}

func (ph *phase) sliceStats(p plan) []sliceStat {
	out := make([]sliceStat, p.slices)
	for s := range out {
		var away time.Duration
		for _, c := range ph.clients {
			out[s].ops += c.ops[s]
			away += c.away[s]
			for cl := range out[s].lat {
				out[s].lat[cl].merge(&c.lat[s][cl])
			}
		}
		out[s].secs = (p.slice - away/clients).Seconds()
	}
	return out
}

// verify checks the tree against what the generators know it must hold:
// the exact key set (so Len, and inserts minus deletes, follow), strictly
// ascending Keys, and on a static workload the conserved value sum.
func (e *env) verify() error {
	h := e.tree.NewHandle()
	keys := h.Keys()
	if n := h.Len(); n != len(keys) {
		return fmt.Errorf("Len() = %d but Keys() has %d", n, len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			return fmt.Errorf("Keys() not strictly ascending at %d: %d, %d", i, keys[i-1], keys[i])
		}
	}
	want := 0
	for k := uint64(0); k < e.w.keyRange; k++ {
		if !e.gens[k%clients].has(k / clients) {
			continue
		}
		if want >= len(keys) || keys[want] != k {
			return fmt.Errorf("key %d should be present and is not (or an unexpected key precedes it)", k)
		}
		want++
	}
	if want != len(keys) {
		return fmt.Errorf("tree holds %d keys, the generators' model %d", len(keys), want)
	}
	if e.w.static() {
		var sum uint64
		h.Ascend(func(_, v uint64) bool { sum += v; return true })
		if exp := e.w.initVal * e.w.keyRange; sum != exp {
			return fmt.Errorf("value sum %d, want %d: transfers did not conserve it", sum, exp)
		}
	}
	if d := e.tree.Durable(); d != nil {
		if err := d.Err(); err != nil {
			return fmt.Errorf("durable log: %w", err)
		}
		if n := d.Stats().Dropped; n != 0 {
			return fmt.Errorf("durable log dropped %d records", n)
		}
	}
	return nil
}

// contents returns every pair in key order.
func contents(t *repro.Tree) (keys, vals []uint64) {
	t.NewHandle().Ascend(func(k, v uint64) bool {
		keys, vals = append(keys, k), append(vals, v)
		return true
	})
	return keys, vals
}

// recoveryTail measures restart cost on a tail of fixed size, so that it
// does not depend on where the last periodic checkpoint happened to land:
// checkpoint, log exactly p.tail further updates from one client, sync,
// close, then time repro.Open on p.reopens copies of the directory. It
// closes the env's tree. Each reopened tree must equal the closed one.
func (e *env) recoveryTail(p plan) (seconds []float64, err error) {
	if err := e.tree.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	g, ex := e.gens[0], newExecutor(e.w, e.tree.NewHandle())
	var o op
	for n := 0; n < p.tail; {
		if g.next(&o); o.kind == opInsert || o.kind == opDelete {
			ex.do(&o)
			n++
		}
	}
	if ex.failed != 0 {
		return nil, fmt.Errorf("recovery tail: %d updates failed", ex.failed)
	}
	if err := e.tree.Sync(); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	if err := e.verify(); err != nil {
		return nil, err
	}
	keys, vals := contents(e.tree)
	e.tree.Close()
	for i := 0; i < p.reopens; i++ {
		dir := fmt.Sprintf("%s-copy%d", e.dir, i)
		if err := os.CopyFS(dir, os.DirFS(e.dir)); err != nil {
			return nil, err
		}
		start := time.Now()
		t, err := e.w.open(dir)
		took := time.Since(start)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("reopen: %w", err)
		}
		k2, v2 := contents(t)
		t.Close()
		os.RemoveAll(dir)
		if !slices.Equal(keys, k2) || !slices.Equal(vals, v2) {
			return nil, fmt.Errorf("reopened tree differs from the closed one (%d vs %d keys)", len(k2), len(keys))
		}
		seconds = append(seconds, took.Seconds())
	}
	return seconds, nil
}
