package main

import (
	"fmt"
	"path/filepath"
	"runtime"
)

// perLayer are the traced run's metrics, layer by layer (layer = module
// name). They carry no bound. README.md says which end-to-end metric each
// should move on which workload. Ladder numbers come from single-threaded
// replays (ladder.go); counter numbers are deltas of the public statistics
// accessors around the traced client phase. A metric that does not apply
// to a workload (ftx.* where nothing calls Atomic, sftree.move_ns where
// nothing moves) reads 0 there.
var perLayer = []metricDef{
	// stm
	{Name: "stm.atomic_ro8_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.atomic_rw8_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.prepare_finalize_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.reads_per_op", Unit: "count", Better: "lower"},
	{Name: "stm.abort_frac", Unit: "frac", Better: "lower"},
	{Name: "stm.retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "stm.backoff_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "stm.spin_exhausted", Unit: "count", Better: "lower"},
	{Name: "stm.structural_commit_frac", Unit: "frac", Better: "lower"},
	{Name: "stm.prepares_per_xact", Unit: "count", Better: "lower"},
	// sftree (+arena)
	{Name: "sftree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "sftree.get_ns_large", Unit: "ns", Better: "lower"},
	{Name: "sftree.update_ns", Unit: "ns", Better: "lower"},
	{Name: "sftree.move_ns", Unit: "ns", Better: "lower"},
	{Name: "sftree.range100_ns", Unit: "ns", Better: "lower"},
	{Name: "sftree.reads_per_get", Unit: "count", Better: "lower"},
	{Name: "sftree.quiesce_ns", Unit: "ns", Better: "lower"},
	{Name: "sftree.height_over_log2n", Unit: "ratio", Better: "lower"},
	{Name: "sftree.height_over_log2n_quiesced", Unit: "ratio", Better: "lower"},
	{Name: "sftree.rotations_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "sftree.removals_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "sftree.hints_dropped_frac", Unit: "frac", Better: "lower"},
	{Name: "sftree.targeted_repairs_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "sftree.sweep_passes", Unit: "count", Better: "lower"},
	{Name: "sftree.maint_busy_frac", Unit: "frac", Better: "lower"},
	// forest
	{Name: "forest.get_ns_s1", Unit: "ns", Better: "lower"},
	{Name: "forest.get_ns_s8", Unit: "ns", Better: "lower"},
	{Name: "forest.update_ns_s1", Unit: "ns", Better: "lower"},
	{Name: "forest.update_ns_s8", Unit: "ns", Better: "lower"},
	{Name: "forest.range100_ns_s8", Unit: "ns", Better: "lower"},
	{Name: "forest.route_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "forest.pool_busy_frac", Unit: "frac", Better: "lower"},
	{Name: "forest.pool_wakeups_per_kupdate", Unit: "count", Better: "lower"},
	{Name: "forest.pool_sweeps", Unit: "count", Better: "lower"},
	{Name: "forest.pool_backlog_end", Unit: "count", Better: "lower"},
	// ftx
	{Name: "ftx.transfer_ns_s1", Unit: "ns", Better: "lower"},
	{Name: "ftx.transfer_ns_s8", Unit: "ns", Better: "lower"},
	{Name: "ftx.readonly_ns_s8", Unit: "ns", Better: "lower"},
	{Name: "ftx.abort_frac", Unit: "frac", Better: "lower"},
	{Name: "ftx.intent_conflict_frac", Unit: "frac", Better: "lower"},
	{Name: "ftx.fallback_frac", Unit: "frac", Better: "higher"},
	{Name: "ftx.readonly_frac", Unit: "frac", Better: "higher"},
	// durable
	{Name: "durable.append_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.sync_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.checkpoint_full_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.checkpoint_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.recover_ns_per_krecord", Unit: "ns", Better: "lower"},
	{Name: "durable.update_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "durable.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "durable.ckpt_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "durable.syncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "durable.stalls", Unit: "count", Better: "lower"},
	{Name: "durable.dropped", Unit: "count", Better: "lower"},
	{Name: "durable.delta_frac", Unit: "frac", Better: "higher"},
	{Name: "durable.ckpt_busy_frac", Unit: "frac", Better: "lower"},
	// repro
	{Name: "repro.get_ns", Unit: "ns", Better: "lower"},
	{Name: "repro.update_ns", Unit: "ns", Better: "lower"},
	{Name: "repro.facade_overhead_ns", Unit: "ns", Better: "lower"},
	// obs, ring
	{Name: "obs.hist_record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_record_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.registry_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.trace64_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "obs.trace1_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "ring.push_pop_ns", Unit: "ns", Better: "lower"},
	// harness
	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "harness.latency_samples", Unit: "count", Better: "higher"},
	// What a user sees on one workload only, what must read 0, or what this
	// host cannot hold to a bound (the p99s): reported with the layers
	// because a gated metric has to be defined, not zero and steady on
	// every workload (see README.md).
	{Name: "user.read_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "user.write_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "user.scan_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "user.recovery_s", Unit: "s", Better: "lower"},
	{Name: "user.disk_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "user.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "user.heap_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "user.failed_ops_frac", Unit: "frac", Better: "lower"},
}

// heapAlloc is the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// per is n/den, or 0 when nothing happened to divide by; frac is the same
// for two counts.
func per(n uint64, den float64) float64 {
	if den == 0 {
		return 0
	}
	return float64(n) / den
}

func frac(num, den uint64) float64 { return per(num, float64(den)) }

// counterMetrics turns the deltas of the statistics accessors around a
// client phase into the per-layer counter metrics.
func counterMetrics(r *result, w *workload, ph *phase) {
	a, b := ph.before, ph.after
	ops, secs := ph.attempted, ph.elapsed.Seconds()
	kupd := float64(ph.updates) / 1000

	commits, aborts := b.stm.Commits-a.stm.Commits, b.stm.Aborts-a.stm.Aborts
	r.set("stm.abort_frac", frac(aborts, commits+aborts))
	r.set("stm.retries_per_kop", per(b.stm.Retries-a.stm.Retries, float64(ops)/1000))
	r.set("stm.backoff_ns_per_op", per(b.stm.BackoffNanos-a.stm.BackoffNanos, float64(ops)))
	r.set("stm.spin_exhausted", float64(b.stm.SpinExhausted-a.stm.SpinExhausted))
	r.set("stm.structural_commit_frac", frac(b.stm.StructuralCommits-a.stm.StructuralCommits, commits))
	r.set("stm.prepares_per_xact", frac(b.stm.Prepares-a.stm.Prepares, ph.xact.Commits))

	emitted, dropped := b.sf.HintsEmitted-a.sf.HintsEmitted, b.sf.HintsDropped-a.sf.HintsDropped
	r.set("sftree.rotations_per_kupdate", per(b.sf.Rotations-a.sf.Rotations, kupd))
	r.set("sftree.removals_per_kupdate", per(b.sf.Removals-a.sf.Removals, kupd))
	r.set("sftree.hints_dropped_frac", frac(dropped, emitted+dropped))
	r.set("sftree.targeted_repairs_per_kupdate", per(b.sf.TargetedRepairs-a.sf.TargetedRepairs, kupd))
	r.set("sftree.sweep_passes", float64(b.sf.Passes-a.sf.Passes))
	r.set("sftree.maint_busy_frac", per(b.sf.BusyNanos-a.sf.BusyNanos, secs*1e9))

	if w.shards > 1 { // an unsharded tree has no pool: the facade synthesizes these from sftree's
		r.set("forest.pool_busy_frac", per(b.maint.BusyNanos-a.maint.BusyNanos, secs*1e9*float64(max(b.maint.Workers, 1))))
		r.set("forest.pool_wakeups_per_kupdate", per(b.maint.Wakeups-a.maint.Wakeups, kupd))
		r.set("forest.pool_sweeps", float64(b.maint.Sweeps-a.maint.Sweeps))
		r.set("forest.pool_backlog_end", float64(b.maint.Backlog))
	}

	x := ph.xact
	r.set("ftx.abort_frac", frac(x.Aborts, x.Commits+x.Aborts))
	r.set("ftx.intent_conflict_frac", frac(x.IntentConflicts, x.Commits+x.Aborts))
	r.set("ftx.fallback_frac", frac(x.Fallbacks, x.Commits))
	r.set("ftx.readonly_frac", frac(x.ReadOnly, x.Commits))

	ckpts := b.dur.Checkpoints - a.dur.Checkpoints
	ckptBytes := b.dur.CheckpointBytes - a.dur.CheckpointBytes
	r.set("durable.ckpt_bytes_per_update", frac(ckptBytes, ph.updates))
	r.set("durable.syncs_per_s", per(b.dur.Syncs-a.dur.Syncs, secs))
	r.set("durable.stalls", float64(b.dur.Stalls-a.dur.Stalls))
	r.set("durable.dropped", float64(b.dur.Dropped-a.dur.Dropped))
	r.set("durable.delta_frac", frac(b.dur.DeltaCheckpoints-a.dur.DeltaCheckpoints, ckpts))
	r.set("durable.ckpt_busy_frac", per(b.dur.CheckpointNanos-a.dur.CheckpointNanos, secs*1e9))

	r.set("user.disk_bytes_per_update", frac(b.dur.Bytes-a.dur.Bytes+ckptBytes, ph.updates))
	r.set("user.allocs_per_op", frac(b.mem.Mallocs-a.mem.Mallocs, ops))
	r.set("user.failed_ops_frac", frac(ph.failed, ops))
}

// runTraced is the traced run: the workload once more with a span around
// every facade call and the statistics accessors read before and after,
// then the layer ladder. No end-to-end number is taken from it.
func runTraced(w *workload, p plan) *result {
	r := newResult(w, p, 1)
	tr := newTracer(w, p)
	base := heapAlloc()
	e, err := setUp(w, p, 0)
	if err != nil {
		r.fail(err)
		return r
	}

	// The same stretch untraced first: the ratio of the two throughputs is
	// what the harness's own spans cost.
	short := p
	short.warmup, short.slices, short.slice = 0, 1, p.traceFor
	plain := e.runClients(short, nil, nil)
	r.set("harness.latency_samples", float64(plain.latencySamples))
	var reads, writes hist
	for _, c := range plain.clients {
		reads.merge(&c.lat[0][classRead])
		writes.merge(&c.lat[0][classWrite])
	}
	r.set("user.read_p99_ns", reads.quantile(0.99))
	r.set("user.write_p99_ns", writes.quantile(0.99))

	run := tr.begin("clients")
	ph := e.runClients(p, tr, nil)
	tr.end(run)
	r.Attempted, r.Failed = plain.attempted+ph.attempted, plain.failed+ph.failed
	if r.Failed != 0 {
		r.fail(fmt.Errorf("%d of %d operations returned an unexpected result", r.Failed, r.Attempted))
	}
	if err := e.verify(); err != nil {
		r.fail(err)
	}
	r.set("harness.trace_overhead_frac",
		1-float64(ph.attempted)/ph.elapsed.Seconds()/(float64(plain.attempted)/plain.elapsed.Seconds()))
	counterMetrics(r, w, ph)
	var scans hist
	for i, c := range ph.clients {
		id := tr.add(span{Parent: run, Client: i, Name: "client", Start: tr.spans[run-1].Start, End: tr.spans[run-1].End})
		for _, s := range c.spans {
			s.Parent, s.Client = id, i
			tr.add(s)
		}
		tr.dropped += c.dropped
		scans.merge(&c.lat[0][classScan])
	}
	r.set("user.scan_p50_ns", scans.quantile(0.5))
	plain, ph = nil, nil // the histograms and spans are harness memory, not the tree's
	r.set("user.heap_bytes_per_key", float64(heapAlloc()-base)/float64(e.tree.NewHandle().Len()))
	if w.durable {
		secs, err := e.recoveryTail(p)
		if err != nil {
			r.fail(err)
		}
		r.setMedian("user.recovery_s", secs)
	}
	e.close() // before the ladder builds its own trees

	micro(r, p.ladderN, tr)
	l := newLadder(w, p, tr)
	if err := l.climb(r); err != nil {
		r.fail(err)
	}
	paper, large := paperWorkload, largeWorkload
	if p.quick {
		paper, large = paper.scaled(quickDiv), large.scaled(quickDiv)
	}
	if w.name != large.name { // its own tree rung measured it already
		r.set("sftree.get_ns_large", largeGet(p, large, tr))
	}
	if err := obsOverhead(r, p, paper, tr); err != nil {
		r.fail(err)
	}
	for _, d := range perLayer {
		if _, ok := r.Values[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
	path := filepath.Join(p.outDir, "trace-"+w.name+".json")
	if err := tr.write(path); err != nil {
		r.fail(err)
	}
	r.Notes["trace"] = fmt.Sprintf("%s: %d spans, %d dropped", path, len(tr.spans), tr.dropped)
	return r
}
