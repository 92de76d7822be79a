package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/forest"
	"repro/internal/obs"
	"repro/internal/ring"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// The layer ladder measures each layer from outside, by timing calls into
// its exported functions: one client's op stream, generated once, is
// replayed single-threaded with maintenance off against successive
// boundaries — the bare tree on its STM, a forest handle with one shard and
// with eight, the same with a write-ahead log attached, and the facade in
// the workload's own configuration. A layer's self time is its rung minus
// the rung below. Single-threaded and fixed-count, so every count the
// replays produce (reads per get, WAL bytes per update) repeats exactly for
// a given seed.

// replay is the outcome of one pass over a stream: per-kind time inside
// the calls (the timer's own cost removed) and call counts.
type replay struct {
	ns [numOpKinds]float64
	n  [numOpKinds]uint64
}

// mean is ns per call over the given kinds (all kinds when none is given),
// 0 when the stream has none of them.
func (r *replay) mean(kinds ...opKind) float64 {
	if len(kinds) == 0 {
		for k := opKind(0); k < numOpKinds; k++ {
			kinds = append(kinds, k)
		}
	}
	var ns float64
	var n uint64
	for _, k := range kinds {
		ns += r.ns[k]
		n += r.n[k]
	}
	if n == 0 {
		return 0
	}
	return ns / float64(n)
}

func (r *replay) count(kinds ...opKind) uint64 {
	var n uint64
	for _, k := range kinds {
		n += r.n[k]
	}
	return n
}

var (
	readKinds   = []opKind{opGet, opContains}
	updateKinds = []opKind{opInsert, opDelete}
	writeKinds  = []opKind{opInsert, opDelete, opMove, opTransfer}
)

type ladder struct {
	w      *workload
	p      plan
	stream []op
	fill   [clients][]uint32
	tr     *tracer
	failed uint64
}

// newLadder generates the stream: client 0's ops, so updates touch its keys
// and reads touch everyone's.
func newLadder(w *workload, p plan, tr *tracer) *ladder {
	l := &ladder{w: w, p: p, tr: tr}
	var gens [clients]*gen
	for c := range gens {
		gens[c] = newGen(w, p.seed, c)
		l.fill[c] = gens[c].prefill()
	}
	n := p.ladderN
	if w.keyRange > 1<<16 {
		n /= 2 // beyond cache every call is several times slower
	}
	l.stream = make([]op, n)
	for i := range l.stream {
		gens[0].next(&l.stream[i])
	}
	return l
}

// reads returns the stream's point reads with their expectations dropped,
// for a pass over the prefilled tree that no update has touched yet.
func (l *ladder) reads() []op {
	var out []op
	for _, o := range l.stream {
		if o.kind == opGet || o.kind == opContains {
			o.expect = expectUnknown
			out = append(out, o)
		}
	}
	return out
}

func (l *ladder) prefill(t target) {
	for _, keys := range l.fill {
		for _, k := range keys {
			if !t.Insert(uint64(k), l.w.value(uint64(k))) {
				l.failed++
			}
		}
	}
}

// timerCost is what one time.Since costs, so that it can be taken out of
// per-call times measured with one clock read per call.
func timerCost() float64 {
	const n = 1 << 16
	start := time.Now()
	var last time.Duration
	for i := 0; i < n; i++ {
		last = time.Since(start)
	}
	return float64(last) / n
}

// replay runs ops in order against t, reading the clock once per call.
func (l *ladder) replay(step string, t target, ops []op) replay {
	ex := newExecutor(l.w, t)
	cost := timerCost()
	id := l.tr.begin(step)
	var r replay
	prev := l.tr.now()
	for i := range ops {
		o := &ops[i]
		ex.do(o)
		now := l.tr.now()
		r.ns[o.kind] += float64(now - prev)
		r.n[o.kind]++
		if i < ladderSpans {
			l.tr.add(span{Parent: id, Client: -1, Name: opNames[o.kind], Start: prev, End: now})
		}
		prev = now
	}
	l.tr.end(id)
	for k := range r.ns {
		r.ns[k] = math.Max(r.ns[k]-cost*float64(r.n[k]), 0)
	}
	l.failed += ex.failed
	return r
}

// ladderSpans is how many calls of each ladder step keep their own span;
// every call is timed, only the first ones are also written to the trace.
const ladderSpans = 1 << 10

// treeRung replays against the bare tree on its STM. Besides the times it
// yields the counts that only this rung can attribute: transactional reads
// per get (from a pass of the stream's reads alone over the freshly
// quiesced tree, whose time per get it also returns) and per op, and what
// the stream does to the tree's shape when nobody maintains it.
func (l *ladder) treeRung(r *result) (rp replay, pristineGetNs float64) {
	t := sftree.New(stm.New(), sftree.WithVariant(sftree.Optimized))
	tt := newTreeTarget(t)
	l.prefill(tt)
	t.Quiesce(quiescePasses)

	reads := l.reads()
	s0 := tt.th.Stats()
	rr := l.replay("sftree.reads", tt, reads)
	s1 := tt.th.Stats()
	if len(reads) > 0 {
		r.set("sftree.reads_per_get", float64(s1.Reads+s1.UReads-s0.Reads-s0.UReads)/float64(len(reads)))
	}
	rp = l.replay("sftree", tt, l.stream)
	s2 := tt.th.Stats()
	r.set("stm.reads_per_op", float64(s2.Reads+s2.UReads-s1.Reads-s1.UReads)/float64(len(l.stream)))

	shape := func() float64 { return float64(t.Height()) / math.Log2(float64(max(t.Size(tt.th), 2))) }
	r.set("sftree.height_over_log2n", shape())
	start := time.Now()
	t.Quiesce(quiescePasses)
	r.set("sftree.quiesce_ns", float64(time.Since(start)))
	r.set("sftree.height_over_log2n_quiesced", shape())
	if err := t.CheckInvariants(); err != nil {
		r.fail(fmt.Errorf("sftree rung: %w", err))
	}
	return rp, rr.mean()
}

// buildForest returns a prefilled, quiesced forest with maintenance off.
func (l *ladder) buildForest(shards int, log *durable.Log) (*forest.Forest, *forest.Handle) {
	f := forest.New(trees.SFOpt, forest.WithShards(shards), forest.WithoutMaintenance())
	if log != nil {
		f.AttachWAL(log)
	}
	h := f.NewHandle()
	l.prefill(h)
	f.Quiesce(quiescePasses)
	return f, h
}

func (l *ladder) forestRung(step string, shards int) replay {
	_, h := l.buildForest(shards, nil)
	return l.replay(step, h, l.stream)
}

// ladderLog opens a write-ahead log with the workload's dials, except that
// checkpoints happen only when the ladder asks for one.
func (l *ladder) ladderLog(name string, shards int) (*durable.Log, string, error) {
	dir := filepath.Join(l.p.outDir, fmt.Sprintf("ladder-%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	log, _, err := durable.Open(dir, shards, durable.Options{CheckpointEvery: -1})
	return log, dir, err
}

// durableRung is the eight-shard forest with a log attached, followed by
// the durable layer's own calls: recovery of everything logged so far, a
// full checkpoint, and a delta checkpoint after 1 % of the keys changed.
func (l *ladder) durableRung(r *result, below replay) error {
	log, dir, err := l.ladderLog("forest", 8)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	f, h := l.buildForest(8, log)
	before := log.Stats()
	rp := l.replay("forest.s8+durable", h, l.stream)
	r.set("durable.wal_bytes_per_update", frac(log.Stats().Bytes-before.Bytes, rp.count(writeKinds...)))
	r.set("durable.update_overhead_ns", rp.mean(writeKinds...)-below.mean(writeKinds...))

	if err := log.Sync(); err != nil {
		return err
	}
	copied := dir + "-recover"
	defer os.RemoveAll(copied)
	if err := os.CopyFS(copied, os.DirFS(dir)); err != nil {
		return err
	}
	id := l.tr.begin("durable.recover")
	relog, rec, err := durable.Open(copied, 8, durable.Options{CheckpointEvery: -1})
	l.tr.end(id)
	if err != nil {
		return fmt.Errorf("ladder recovery: %w", err)
	}
	relog.Close()
	if rec.Records > 0 {
		r.set("durable.recover_ns_per_krecord", float64(rec.Elapsed)/float64(rec.Records)*1000)
	}

	timed := func(step string) (float64, error) {
		id := l.tr.begin(step)
		start := time.Now()
		err := log.Checkpoint(f)
		l.tr.end(id)
		return float64(time.Since(start)), err
	}
	ns, err := timed("durable.checkpoint_full")
	if err != nil {
		return err
	}
	r.set("durable.checkpoint_full_ns", ns)
	// Rewrite every hundredth key in place: 1 % of the keys dirty, contents
	// unchanged.
	for k := uint64(0); k < l.w.keyRange; k += 100 {
		if v, ok := h.Get(k); ok {
			h.Delete(k)
			h.Insert(k, v)
		} else {
			h.Insert(k, k)
			h.Delete(k)
		}
	}
	deltas := log.Stats().DeltaCheckpoints
	if ns, err = timed("durable.checkpoint_delta"); err != nil {
		return err
	}
	r.set("durable.checkpoint_delta_ns", ns)
	if log.Stats().DeltaCheckpoints != deltas+1 {
		r.Notes["durable.checkpoint_delta_ns"] = "the log chose a full base, not a delta"
	}
	return log.Err()
}

// logCalls times the log's own entry points: an append of a one-op record
// under the default group commit, and an explicit sync of one record.
func (l *ladder) logCalls(r *result) error {
	log, dir, err := l.ladderLog("log", 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	ops := []durable.Op{{Key: 1, Val: 1}}
	n := len(l.stream)
	id := l.tr.begin("durable.append")
	start := time.Now()
	for i := 0; i < n; i++ {
		ops[0].Key = uint64(i)
		log.LogUpdate(0, uint64(i+1), ops)
	}
	r.set("durable.append_ns", float64(time.Since(start))/float64(n))
	l.tr.end(id)
	const syncs = 64
	var total time.Duration
	id = l.tr.begin("durable.sync")
	for i := 0; i < syncs; i++ {
		log.LogUpdate(0, uint64(n+i+1), ops)
		start := time.Now()
		if err := log.Sync(); err != nil {
			return err
		}
		total += time.Since(start)
	}
	l.tr.end(id)
	r.set("durable.sync_ns", float64(total)/syncs)
	return log.Err()
}

// facadeRung replays against a repro.Handle on a tree built with opts plus
// WithoutMaintenance, volatile or durable as the workload is.
func (l *ladder) facadeRung(step string, opts ...repro.Option) (replay, error) {
	opts = append(opts, repro.WithoutMaintenance())
	var t *repro.Tree
	if l.w.durable {
		dir := filepath.Join(l.p.outDir, fmt.Sprintf("ladder-facade-%d", os.Getpid()))
		defer os.RemoveAll(dir)
		if err := os.RemoveAll(dir); err != nil {
			return replay{}, err
		}
		opts = append(opts, repro.WithDurability(repro.DurabilityOptions{CheckpointEvery: -1}))
		var err error
		if t, err = repro.Open(dir, repro.SpeculationFriendlyOptimized, opts...); err != nil {
			return replay{}, err
		}
	} else {
		t = repro.NewTree(repro.SpeculationFriendlyOptimized, opts...)
	}
	defer t.Close()
	h := t.NewHandle()
	l.prefill(h)
	t.Maintain(quiescePasses)
	return l.replay(step, h, l.stream), nil
}

// climb runs the whole ladder for the workload and records its metrics.
func (l *ladder) climb(r *result) error {
	tree, pristine := l.treeRung(r)
	s1 := l.forestRung("forest.s1", 1)
	s8 := l.forestRung("forest.s8", 8)
	if err := l.durableRung(r, s8); err != nil {
		return err
	}
	if err := l.logCalls(r); err != nil {
		return err
	}
	var opts []repro.Option
	if l.w.shards > 1 {
		opts = append(opts, repro.WithShards(l.w.shards))
	}
	top, err := l.facadeRung("repro", opts...)
	if err != nil {
		return err
	}

	r.set("sftree.get_ns", tree.mean(readKinds...))
	if l.w.name == largeWorkload.name {
		r.set("sftree.get_ns_large", pristine)
	}
	r.set("sftree.update_ns", tree.mean(updateKinds...))
	r.set("sftree.move_ns", tree.mean(opMove))
	r.set("sftree.range100_ns", tree.mean(opRange))
	r.set("forest.get_ns_s1", s1.mean(readKinds...))
	r.set("forest.get_ns_s8", s8.mean(readKinds...))
	r.set("forest.update_ns_s1", s1.mean(updateKinds...))
	r.set("forest.update_ns_s8", s8.mean(updateKinds...))
	r.set("forest.range100_ns_s8", s8.mean(opRange))
	r.set("forest.route_overhead_ns", s1.mean(readKinds...)-tree.mean(readKinds...))
	r.set("ftx.transfer_ns_s1", s1.mean(opTransfer))
	r.set("ftx.transfer_ns_s8", s8.mean(opTransfer))
	r.set("ftx.readonly_ns_s8", s8.mean(opAudit))
	r.set("repro.get_ns", top.mean(readKinds...))
	r.set("repro.update_ns", top.mean(updateKinds...))
	r.set("repro.facade_overhead_ns", top.mean(readKinds...)-tree.mean(readKinds...))

	l.shares(r, tree, s8, top)
	if l.failed != 0 {
		return fmt.Errorf("ladder: %d replayed operations returned an unexpected result", l.failed)
	}
	return nil
}

// shares prints where an average op of the workload spends its time, layer
// by layer, as differences between rungs. Two parts are estimates, because
// no exported boundary isolates them: the STM's share of the tree rung is
// the rung's reads priced at stm.atomic_ro8_ns/8 each, and ftx's self time
// on an Atomic call is the call minus its four reads priced as routed gets
// and a transfer's two writes priced at stm.prepare_finalize_ns each.
func (l *ladder) shares(r *result, tree, s8, top replay) {
	below := tree // the rung right under the facade, in this workload's configuration
	if l.w.shards > 1 {
		below = s8
	}
	getTree, getBelow := tree.mean(readKinds...), below.mean(readKinds...)
	pf := r.Values["stm.prepare_finalize_ns"]
	var stmNs, treeNs, forestNs, ftxNs float64
	for k := opKind(0); k < numOpKinds; k++ {
		n := float64(below.n[k])
		switch k {
		case opTransfer, opAudit:
			writes := 0.0
			if k == opTransfer {
				writes = 2
			}
			ftxNs += math.Max(below.ns[k]-n*(4*getBelow+writes*pf), 0)
			forestNs += n * 4 * (getBelow - getTree)
			treeNs += n * 4 * getTree
			stmNs += n * writes * pf
		default:
			forestNs += below.ns[k] - tree.ns[k]
			treeNs += tree.ns[k]
		}
	}
	inTree := 0.0 // the STM's part of the tree rung
	if t := tree.mean(); t > 0 {
		inTree = math.Min(r.Values["stm.reads_per_op"]*r.Values["stm.atomic_ro8_ns"]/8/t, 1)
	}
	calls := float64(len(l.stream))
	durableNs := 0.0
	if l.w.durable {
		durableNs = math.Max(r.Values["durable.update_overhead_ns"], 0) * float64(top.count(writeKinds...))
	}
	parts := []struct {
		layer string
		ns    float64
	}{
		{"stm", stmNs + inTree*treeNs}, {"sftree", (1 - inTree) * treeNs}, {"forest", math.Max(forestNs, 0)},
		{"ftx", ftxNs}, {"durable", durableNs},
		{"repro", math.Max((top.mean()-below.mean())*calls-durableNs, 0)},
	}
	var sum float64
	for _, p := range parts {
		sum += p.ns
	}
	line := fmt.Sprintf("average op %.0f ns =", sum/calls)
	for _, p := range parts {
		line += fmt.Sprintf(" %s %.1f%%", p.layer, 100*p.ns/sum)
	}
	r.Notes["self-time shares"] = line
}

// micro times the calls that have no tree under them: the STM's
// transactions over eight words, the ring, and the observability layer's
// record calls.
func micro(r *result, n int, tr *tracer) {
	timed := func(name string, fn func(i int)) {
		id := tr.begin(name)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		r.set(name, float64(time.Since(start))/float64(n))
		tr.end(id)
	}
	th := stm.New().NewThread()
	var words [8]stm.Word
	var sink uint64
	ro := func(tx *stm.Tx) {
		for i := range words {
			sink += tx.Read(&words[i])
		}
	}
	rw := func(tx *stm.Tx) {
		for i := range words {
			tx.Write(&words[i], tx.Read(&words[i])+1)
		}
	}
	two := func(tx *stm.Tx) {
		tx.Write(&words[0], tx.Read(&words[0])-1)
		tx.Write(&words[1], tx.Read(&words[1])+1)
	}
	timed("stm.atomic_ro8_ns", func(int) { th.Atomic(ro) })
	timed("stm.atomic_rw8_ns", func(int) { th.Atomic(rw) })
	timed("stm.prepare_finalize_ns", func(int) {
		if p, ok := th.Prepare(two); ok {
			p.Finalize()
		} else {
			r.fail(fmt.Errorf("stm.Prepare failed with no contention"))
		}
	})
	q := ring.New[uint32](1024)
	timed("ring.push_pop_ns", func(i int) {
		q.Push(uint32(i))
		q.Pop()
	})
	var h obs.Histogram
	timed("obs.hist_record_ns", func(i int) { h.Record(uint64(i)) })
	t := obs.NewTracer(1, 4096)
	timed("obs.span_record_ns", func(i int) { t.Record(uint64(i+1), obs.SpanAttempt, obs.OpGet, int64(i), int64(i+1), 0, 0) })
	_ = sink
}

// obsOverhead replays the paper-u20 stream through the facade with the
// observability options on, against the same replay with them off.
func obsOverhead(r *result, p plan, paper *workload, tr *tracer) error {
	l := newLadder(paper, p, tr)
	off, err := l.facadeRung("repro.obs-off")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		opt  repro.Option
	}{
		{"obs.registry_overhead_frac", repro.WithObservability("")},
		{"obs.trace64_overhead_frac", repro.WithTracing(64)},
		{"obs.trace1_overhead_frac", repro.WithTracing(1)},
	} {
		on, err := l.facadeRung(c.name, c.opt)
		if err != nil {
			return err
		}
		r.set(c.name, on.mean()/off.mean()-1)
	}
	if l.failed != 0 {
		return fmt.Errorf("obs replays: %d operations returned an unexpected result", l.failed)
	}
	return nil
}

// largeGet times gets on a freshly quiesced bare tree far beyond cache
// (durable-large's key set), whatever the workload: the read path's
// cache-miss figure.
func largeGet(p plan, large *workload, tr *tracer) float64 {
	l := newLadder(large, p, tr)
	t := sftree.New(stm.New(), sftree.WithVariant(sftree.Optimized))
	tt := newTreeTarget(t)
	l.prefill(tt)
	t.Quiesce(quiescePasses)
	rr := l.replay("sftree.large", tt, l.reads())
	return rr.mean()
}
