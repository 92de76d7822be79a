// Package bench is the synchrobench-style integer-set micro-benchmark
// harness of the paper's evaluation (§5.1–5.4): concurrent threads apply a
// mix of contains / insert / delete / move operations to one tree for a
// fixed duration, and the harness reports throughput (operations per
// microsecond, the paper's unit), effective-update accounting, abort rates
// and the transactional-read ceilings of Table 1.
//
// Beyond the paper's single-domain configurations, the harness can hammer a
// sharded forest (Options.Shards > 1, reported per shard and aggregated),
// select the STM's contention manager (Options.CM), and draw keys from a
// Zipfian hot-set distribution instead of the uniform one (Workload.Dist).
//
// Two methodological details follow the paper explicitly:
//
//   - Effective updates. "We consider the effective update ratios of
//     synchrobench counting only modifications and ignoring the operations
//     that fail." In effective mode each thread alternates inserting a
//     fresh random key with deleting a key it previously inserted, so
//     almost every attempted update modifies the structure; the measured
//     effective ratio is reported alongside.
//
//   - Biased workload (Fig. 3 right). "Inserting (resp. deleting) random
//     values skewed towards high (resp. low) numbers in the value range:
//     the values ... are skewed with a fixed probability by incrementing
//     (resp. decrementing) with an integer uniformly taken within [0..9]."
package bench

import (
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/forest"
	"repro/internal/ftx"
	"repro/internal/obs"
	"repro/internal/sftree"
	"repro/internal/stm"
	"repro/internal/trees"
)

// Workload describes the operation mix and key distribution.
type Workload struct {
	// KeyRange is the size of the key universe; the initial fill inserts
	// each key with probability 1/2, so the expected initial size is
	// KeyRange/2 (the paper fixes the expectation to 2^12 this way).
	KeyRange uint64
	// UpdatePercent is the percentage of operations that attempt an
	// insert or delete (the paper's update ratio).
	UpdatePercent int
	// MovePercent is the percentage of operations that are composed move
	// operations (Fig. 5(b)); they count within the update budget.
	MovePercent int
	// Biased enables the skewed insert-high/delete-low workload.
	Biased bool
	// Effective selects the effective-update discipline described above;
	// when false, updates pick uniform random keys and may fail (the
	// attempted-ratio regime of Table 1).
	Effective bool
	// Dist selects the key distribution ("" and DistUniform are the
	// paper's uniform regime; DistZipf concentrates traffic on a hot set).
	Dist Dist
	// ZipfS is the Zipf skew exponent (0 selects DefaultZipfS).
	ZipfS float64
	// RangeFrac is the fraction of all operations (0..1) that are ordered
	// range scans over a window of the key space — the workload class the
	// paper's elastic-transaction discussion motivates (traversal-heavy
	// reads). The remaining (1 - RangeFrac) of operations draw the
	// update/move/read mix exactly as before, so UpdatePercent is the
	// update share of the non-scan operations (the overall update rate is
	// diluted by the scan fraction) and existing configurations
	// (RangeFrac == 0) reproduce bit-for-bit.
	RangeFrac float64
	// RangeLen is the key-space width of each scan window [lo, lo+RangeLen)
	// (0 selects DefaultRangeLen). The number of elements visited is about
	// half of it under the harness's half-full fill.
	RangeLen uint64
	// XactFrac is the fraction of all operations (0..1) that are multi-key
	// transfer transactions: each reads XactKeys keys through the
	// cross-shard transaction coordinator and atomically moves one unit of
	// value from the richest present key to the poorest. Like RangeFrac it
	// dilutes the remaining mix, so existing configurations (XactFrac == 0)
	// reproduce bit-for-bit.
	XactFrac float64
	// XactKeys is the number of keys each transfer touches (0 selects
	// DefaultXactKeys; minimum 2).
	XactKeys int
	// XactCrossFrac is the cross-shard dial: the fraction of transfers
	// (0..1) whose keys are drawn freely over the whole key space — on a
	// sharded run, almost surely spanning shards and paying the full
	// two-phase commit. The rest are confined to the first key's shard
	// (SameShard routing) and commit through the coordinator's single-shard
	// fallback. Irrelevant on unsharded runs, where every transfer falls
	// back.
	XactCrossFrac float64

	// zipfCDF is the shared distribution table, computed once per Run and
	// handed to every worker (it depends only on ZipfS and KeyRange).
	zipfCDF []float64
}

// DefaultRangeLen is the scan-window width used when Workload.RangeLen is 0.
const DefaultRangeLen = 100

// DefaultXactKeys is the per-transfer key count used when Workload.XactKeys
// is 0.
const DefaultXactKeys = 4

// prepareZipf populates the shared CDF table when the workload is Zipfian.
func (wl *Workload) prepareZipf() {
	if wl.Dist == DistZipf && wl.zipfCDF == nil {
		s := wl.ZipfS
		if s == 0 {
			s = DefaultZipfS
		}
		wl.zipfCDF = zipfCDF(s, wl.KeyRange)
	}
}

// Options configures one benchmark run.
type Options struct {
	Kind     trees.Kind
	Mode     stm.Mode
	Threads  int
	Duration time.Duration
	Workload Workload
	Seed     int64
	// Shards partitions the key space across that many independent
	// STM-domain+tree shards (internal/forest). 0 and 1 select the
	// single-domain path, which is byte-for-byte the paper's configuration.
	Shards int
	// CM names the contention manager ("suicide", "backoff", "karma").
	// Empty selects "suicide" — the historical engine behavior — so every
	// pre-forest experiment configuration reproduces unchanged; new callers
	// opt into backoff or karma explicitly.
	CM string
	// YieldEvery enables the STM's interleaving simulation (stm.WithYield):
	// worker threads yield after that many transactional accesses, so
	// transactions overlap even when the host has fewer cores than workers.
	// 0 disables.
	YieldEvery int
	// MaintWorkers sizes the forest's shared maintenance worker pool
	// (0 selects the forest default, min(shards, GOMAXPROCS/2)). Only
	// meaningful with Shards > 1.
	MaintWorkers int
	// MaintPacing overrides the forest's per-shard hint-drain pacing gap
	// (0 keeps the forest default of 2ms; forest.WithMaintPacing). Only
	// meaningful with Shards > 1.
	MaintPacing time.Duration
	// Batch enables the forest's per-shard op combiner with that max batch
	// size (forest.WithBatching): single-key operations coalesce into
	// batches applied one transaction each. Values <= 1 leave batching off.
	// A batched run always takes the forest path, whatever the shard count.
	Batch int
	// BatchWait is the combiner runner's linger for topping up an underfull
	// batch (0 commits whatever is pending). Only meaningful with Batch > 1.
	BatchWait time.Duration
	// Durable attaches a write-ahead log (in a temporary directory, removed
	// after the run) to the measured forest: every committed update appends
	// one record, checkpoints run periodically, and after the hammer phase
	// the run performs — and times — a full recovery of the directory. The
	// single-domain configuration then runs as a one-shard forest (the
	// durable facade's own arrangement).
	Durable bool
	// Fsync selects per-operation durability (fsync before every update
	// returns) instead of the default asynchronous group commit. Only
	// meaningful with Durable.
	Fsync bool
	// DurableCheckpoint is the periodic checkpoint interval of a durable
	// run (0 selects 500ms; negative disables periodic checkpoints).
	DurableCheckpoint time.Duration
	// DurableCompact is the durable run's delta-chain compaction period
	// (durable.Options.CompactEvery): after that many incremental delta
	// checkpoints the next one folds the chain into a fresh full base.
	// 0 selects the durable default (durable.DefaultCompactEvery); a
	// negative value disables delta checkpoints, restoring the pre-delta
	// every-checkpoint-is-full regime.
	DurableCompact int
	// ObsAddr turns on the observability layer for the measured run and
	// serves its /metrics + /snapshot + /flight + pprof endpoint on the
	// given address (":0" for an ephemeral port). Every layer of the run
	// registers into the registry, so a scrape during the hammer phase
	// sees the live counters. Empty leaves observability off entirely —
	// the hooks then cost nothing, keeping the historical rows unchanged.
	ObsAddr string
	// ObsReady, when non-nil, is called with the endpoint's bound address
	// after the server is up but before the hammer phase starts (implies
	// ObsAddr ":0" when that is empty). Test harnesses use it to scrape
	// mid-run.
	ObsReady func(addr string)
	// TraceEvery turns on the sampled span tracer for the measured run
	// (repro.WithTracing's dial): one in TraceEvery facade operations
	// records spans for every phase it crosses, served on /trace when the
	// observability endpoint is up. 0 disables tracing entirely (the off
	// path costs one atomic load per op). A traced run always takes the
	// forest path, whatever the shard count.
	TraceEvery int
}

// defaultBenchCheckpoint is the durable run's checkpoint interval default.
const defaultBenchCheckpoint = 500 * time.Millisecond

// contentionManager resolves the run's contention manager, defaulting to
// suicide (see the CM field comment).
func (o Options) contentionManager() stm.ContentionManager {
	name := o.CM
	if name == "" {
		name = "suicide"
	}
	cm, err := stm.ManagerByName(name)
	if err != nil {
		panic(err)
	}
	return cm
}

// ShardResult is one shard's share of a sharded run.
type ShardResult struct {
	Ops        uint64  // operations routed to the shard
	Throughput float64 // its ops per microsecond over the run
	STM        stm.Stats
}

// Result reports one run's measurements.
type Result struct {
	Kind    trees.Kind
	Mode    stm.Mode
	Threads int
	Shards  int
	CM      string
	Dist    Dist
	Batch   int // combiner batch-size dial (0/1 = batching off)
	Elapsed time.Duration

	Ops              uint64  // operations completed
	EffectiveUpdates uint64  // updates that modified the abstraction
	EffectiveMoves   uint64  // moves that relocated a value
	RangeOps         uint64  // ordered range scans completed
	RangeItems       uint64  // elements visited by range scans in total
	XactOps          uint64  // multi-key transfer transactions completed
	XactMoves        uint64  // transfers that actually moved a unit
	Throughput       float64 // operations per microsecond (paper's unit)
	EffectiveRatio   float64 // effective updates / ops

	// Batch-coalescing accounting (zero unless Options.Batch > 1): batches
	// the per-shard op combiner committed, the operations those batches
	// carried, and the mean coalescing factor BatchedOps/Batches. Ops that
	// took the combiner's uncontended direct fast path appear in neither.
	Batches    uint64
	BatchedOps uint64
	AvgBatch   float64

	// Per-operation latency percentiles in nanoseconds, cut from the merged
	// per-worker op_latency_nanos histograms fed by every latSampleEvery-th
	// operation (sampling keeps the clock reads off the common path, so the
	// single-thread throughput rows stay comparable). The log2 buckets give
	// the ~2x relative error every obs histogram has. Zero when no sample
	// was taken.
	P50Nanos uint64
	P99Nanos uint64

	// Runtime scheduling and GC figures over the hammer phase:
	// GCPauseP99Nanos is the p99 stop-the-world pause among the GC cycles
	// that ran inside the window (0 when none did), from the
	// /gc/pauses:seconds runtime/metrics histogram diffed across the
	// window; Goroutines is the live goroutine count sampled at the end of
	// the window, workers still running.
	GCPauseP99Nanos uint64
	Goroutines      int

	// Heap-allocation accounting over the hammer phase (runtime.MemStats
	// deltas divided by Ops). The window covers everything live during the
	// measurement — worker goroutine startup, maintenance workers, the WAL
	// on durable runs — so these are whole-system figures, not per-call
	// gates (the AllocsPerRun tests are); a steady-state in-memory run
	// should still sit near zero.
	AllocsPerOp float64 // heap allocations per operation
	BytesPerOp  float64 // heap bytes allocated per operation

	// Xact is the cross-shard coordinator's own accounting, summed over
	// workers: total commits, the subset that took the single-shard
	// fallback fast path, retried aborts and intent conflicts. On the
	// single-domain path every transfer is a fallback commit by
	// construction.
	Xact ftx.Stats

	STM       stm.Stats     // summed over worker threads (all shards)
	PerShard  []ShardResult // per-shard breakdown (nil on the single path)
	TreeStats sftree.Stats  // zero for non-SF trees; includes hint counters
	Rotations uint64        // tree rotations (see trees.Rotations)
	// Pool describes the maintenance scheduler: the forest's shared worker
	// pool, or — on the single-domain path — the tree's own maintenance
	// goroutine rendered as a one-worker pool (sweeps = passes), so the
	// maintenance-efficiency columns stay comparable across shard counts.
	Pool forest.PoolStats

	// Durability accounting (zero unless Options.Durable): the WAL's own
	// counters over the hammer phase, plus a timed full recovery of the
	// directory performed after the run.
	Durable          bool
	Wal              durable.Stats
	RecoveryNanos    uint64 // wall time of the post-run recovery
	RecoveredPairs   int    // elements the recovery reconstructed
	RecoveryAppliers int    // applier goroutines the recovery replay used
	RecoveryDeltas   int    // delta generations in the recovered chain

	// Raw MemStats deltas captured by hammer; finish divides them by Ops.
	hammerMallocs uint64
	hammerBytes   uint64
	// latHist merges the workers' latency histograms; finish cuts the
	// percentiles from it.
	latHist obs.HistSnapshot
}

// WorkerUtilization returns the fraction of the run's wall-clock ×
// pool-size budget the maintenance workers spent busy (0 when no pool ran).
func (r *Result) WorkerUtilization() float64 {
	if r.Pool.Workers == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Pool.BusyNanos) / (float64(r.Elapsed.Nanoseconds()) * float64(r.Pool.Workers))
}

// CheckpointDirtyFrac returns the mean dirty fraction across the run's
// delta checkpoints — dirty keys over the base's pair count, averaged over
// the deltas written (0 when none ran). Small values mean the incremental
// checkpoints are writing churn, not store size.
func (r *Result) CheckpointDirtyFrac() float64 {
	if r.Wal.DeltaCheckpoints == 0 {
		return 0
	}
	return r.Wal.DirtyFracSum / float64(r.Wal.DeltaCheckpoints)
}

// subTreeStats returns cur minus the pre-measurement base, so the reported
// maintenance counters cover only the hammer phase (the fill and its
// Quiesce drive plenty of maintenance of their own).
func subTreeStats(cur, base sftree.Stats) sftree.Stats {
	return sftree.Stats{
		Rotations:       cur.Rotations - base.Rotations,
		Removals:        cur.Removals - base.Removals,
		Passes:          cur.Passes - base.Passes,
		Freed:           cur.Freed - base.Freed,
		FailedRot:       cur.FailedRot - base.FailedRot,
		FailedRemove:    cur.FailedRemove - base.FailedRemove,
		HintsEmitted:    cur.HintsEmitted - base.HintsEmitted,
		HintsCoalesced:  cur.HintsCoalesced - base.HintsCoalesced,
		HintsDropped:    cur.HintsDropped - base.HintsDropped,
		TargetedRepairs: cur.TargetedRepairs - base.TargetedRepairs,
		BusyNanos:       cur.BusyNanos - base.BusyNanos,
	}
}

// subPoolStats subtracts the pre-measurement activity counters (size,
// backlog and the current pacing gap are instantaneous, not cumulative).
func subPoolStats(cur, base forest.PoolStats) forest.PoolStats {
	cur.BusyNanos -= base.BusyNanos
	cur.Wakeups -= base.Wakeups
	cur.Sweeps -= base.Sweeps
	cur.HintBatches -= base.HintBatches
	return cur
}

// Run executes one benchmark: build, fill, start maintenance, hammer for
// the configured duration, and collect statistics. Shards > 1 selects the
// forest path; otherwise the single-domain tree is measured exactly as the
// paper's harness does.
func Run(o Options) Result {
	if o.Threads < 1 {
		panic("bench: Threads must be >= 1")
	}
	if o.Workload.KeyRange < 2 {
		panic("bench: KeyRange must be >= 2")
	}
	if o.Workload.RangeFrac+o.Workload.XactFrac >= 1 {
		// Step draws one uniform variate against the two fractions back to
		// back; overlapping dials would silently starve the plain mix while
		// the result reports the nominal values.
		panic("bench: RangeFrac + XactFrac must be < 1")
	}
	o.Workload.prepareZipf() // one shared CDF table for all workers
	if o.Shards > 1 || o.Durable || o.Batch > 1 || o.TraceEvery > 0 {
		return runForest(o)
	}
	cm := o.contentionManager()
	s := stm.New(stm.WithMode(o.Mode), stm.WithYield(o.YieldEvery), stm.WithContentionManager(cm))
	m := trees.New(o.Kind, s)
	fill(m, s, o.Workload.KeyRange, o.Seed)

	stopMaint := trees.Start(m)
	defer stopMaint()
	// Maintenance counters from the fill (and its Quiesce) are not part of
	// the measurement; report hammer-phase deltas only.
	var fillStats sftree.Stats
	if sf, ok := m.(interface{ Stats() sftree.Stats }); ok {
		fillStats = sf.Stats()
	}

	workers := make([]*Runner, o.Threads)
	for i := range workers {
		workers[i] = NewRunner(m, s.NewThread(), o.Workload, o.Seed+int64(i)*7919+1)
	}
	srv := startObs(o, func(r *obs.Registry, fr *obs.FlightRecorder) {
		s.RegisterObs(r, "")
		if sf, ok := m.(interface {
			RegisterObs(*obs.Registry, string)
		}); ok {
			sf.RegisterObs(r, "")
		}
		registerLatency(r, workers)
	})
	hr := hammer(workers, o.Duration)
	if srv != nil {
		srv.Close()
	}

	res := newResult(o, cm, 1, hr.elapsed)
	res.hammerMallocs, res.hammerBytes = hr.mallocs, hr.bytes
	res.GCPauseP99Nanos, res.Goroutines = hr.gcPauseP99, hr.goroutines
	for _, w := range workers {
		res.addWorker(w)
		res.STM.Add(w.th.Stats())
	}
	res.finish()
	if sf, ok := m.(interface{ Stats() sftree.Stats }); ok {
		res.TreeStats = subTreeStats(sf.Stats(), fillStats)
	}
	if _, ok := trees.HintMaintainedOf(m); ok {
		res.Pool = forest.PoolStats{
			Workers:   1,
			BusyNanos: res.TreeStats.BusyNanos,
			Sweeps:    res.TreeStats.Passes,
		}
	}
	if rot, ok := trees.Rotations(m); ok {
		res.Rotations = rot
	}
	return res
}

// runForest is the sharded path: one forest, one handle per worker, and a
// per-shard breakdown of routed operations and STM statistics. Durable
// runs (any shard count) come through here too, with a WAL attached after
// the fill and a timed recovery after the hammer.
func runForest(o Options) Result {
	shards := o.Shards
	if shards < 1 {
		shards = 1
	}
	cm := o.contentionManager()
	fopts := []forest.Option{
		forest.WithShards(shards),
		forest.WithTMMode(o.Mode),
		forest.WithContentionManager(cm),
		forest.WithYield(o.YieldEvery),
	}
	if o.MaintWorkers > 0 {
		fopts = append(fopts, forest.WithMaintWorkers(o.MaintWorkers))
	}
	if o.MaintPacing > 0 {
		fopts = append(fopts, forest.WithMaintPacing(o.MaintPacing))
	}
	if o.Batch > 1 {
		fopts = append(fopts, forest.WithBatching(o.Batch, o.BatchWait))
	}
	f := forest.New(o.Kind, fopts...)
	fillForest(f, o.Workload.KeyRange, o.Seed)
	// The pool runs during the fill too; report hammer-phase deltas only,
	// mirroring the single-domain path (keeps shard counts comparable).
	fillStats := f.MaintenanceStats()
	fillPool := f.PoolStats()

	// Durable runs: open the WAL after the fill (the fill is covered by the
	// baseline checkpoint instead of being replayed record by record), so
	// the log counters measure the hammer phase.
	var dl *durable.Log
	var dopts durable.Options
	var dir string
	if o.Durable {
		ckpt := o.DurableCheckpoint
		if ckpt == 0 {
			ckpt = defaultBenchCheckpoint
		}
		var err error
		dir, err = os.MkdirTemp("", "repro-bench-wal-*")
		if err != nil {
			panic(err)
		}
		dopts = durable.Options{Sync: o.Fsync, CheckpointEvery: ckpt, CompactEvery: o.DurableCompact}
		dl, _, err = durable.Open(dir, shards, dopts)
		if err != nil {
			panic(err)
		}
		f.AttachWAL(dl)
		if err := dl.Checkpoint(f); err != nil {
			panic(err)
		}
		dl.StartCheckpoints(f)
	}

	// The tracer attaches before the workers start: from here on one in
	// TraceEvery facade ops records spans through every layer of the run.
	var tracer *obs.Tracer
	if o.TraceEvery > 0 {
		tracer = obs.NewTracer(o.TraceEvery, 4096)
		f.SetTracer(tracer)
		if dl != nil {
			dl.SetTracer(tracer)
		}
	}

	workers := make([]*Runner, o.Threads)
	handles := make([]*forest.Handle, o.Threads)
	for i := range workers {
		handles[i] = f.NewHandle()
		workers[i] = NewTargetRunner(handles[i], o.Workload, o.Seed+int64(i)*7919+1)
	}
	srv := startObs(o, func(r *obs.Registry, fr *obs.FlightRecorder) {
		f.RegisterObs(r)
		f.SetFlightRecorder(fr)
		if dl != nil {
			dl.RegisterObs(r)
			dl.SetFlightRecorder(fr)
		}
		if tracer != nil {
			r.SetTracer(tracer)
			tracer.RegisterObs(r)
		}
		registerLatency(r, workers)
	})
	hr := hammer(workers, o.Duration)
	elapsed := hr.elapsed
	if srv != nil {
		srv.Close()
	}
	if dl != nil {
		dl.Close()
	}
	// Stop the maintenance worker pool before reading statistics: thread
	// counters are plain fields, exact only once their owner is quiet.
	f.Close()

	res := newResult(o, cm, shards, elapsed)
	res.hammerMallocs, res.hammerBytes = hr.mallocs, hr.bytes
	res.GCPauseP99Nanos, res.Goroutines = hr.gcPauseP99, hr.goroutines
	if dl != nil {
		res.Durable = true
		res.Wal = dl.Stats()
		t0 := time.Now()
		l2, rec, err := durable.Open(dir, shards, dopts)
		if err != nil {
			// A failed recovery must not masquerade as a cheap empty one in
			// the benchmark artifact; fail loudly like the other durable-
			// path errors above.
			panic(err)
		}
		res.RecoveryNanos = uint64(time.Since(t0).Nanoseconds())
		res.RecoveredPairs = len(rec.State)
		res.RecoveryAppliers = rec.Appliers
		res.RecoveryDeltas = rec.ChainDeltas
		l2.Close()
		os.RemoveAll(dir)
	}
	// Sum the workers' own per-shard threads, mirroring the single-domain
	// path's worker-only accounting (the fill handle and the maintenance
	// goroutines are excluded there too, keeping shards=1 and shards=N
	// rows comparable).
	res.PerShard = make([]ShardResult, shards)
	for i, w := range workers {
		res.addWorker(w)
		ops := handles[i].OpsPerShard()
		for si, st := range handles[i].ShardStats() {
			res.PerShard[si].Ops += ops[si]
			res.PerShard[si].STM.Add(st)
			res.STM.Add(st)
		}
	}
	for si := range res.PerShard {
		res.PerShard[si].Throughput = float64(res.PerShard[si].Ops) / (float64(elapsed.Nanoseconds()) / 1e3)
	}
	res.finish()
	res.TreeStats = subTreeStats(f.MaintenanceStats(), fillStats)
	res.Pool = subPoolStats(f.PoolStats(), fillPool) // counters survive Close
	if rot, ok := f.Rotations(); ok {
		res.Rotations = rot
	}
	return res
}

// hammerResult carries the hammer window's whole-system measurements:
// wall time, heap-allocation deltas, the GC pause p99 among cycles inside
// the window, and the live goroutine count sampled while the workers were
// still running.
type hammerResult struct {
	elapsed    time.Duration
	mallocs    uint64
	bytes      uint64
	gcPauseP99 uint64
	goroutines int
}

// hammer runs every worker in its own goroutine for the given duration. It
// also reports the heap-allocation deltas (mallocs, bytes) over the window,
// measured with ReadMemStats just outside the timed region so the
// stop-the-world cost of the reads never lands inside the throughput
// window; the GC-pause histogram reads sit outside it for the same reason.
func hammer(workers []*Runner, d time.Duration) hammerResult {
	var stopFlag atomic.Bool
	var start, ready sync.WaitGroup
	start.Add(1)
	for _, w := range workers {
		w := w
		ready.Add(1)
		go func() {
			start.Wait()
			for !stopFlag.Load() {
				w.Step()
			}
			ready.Done()
		}()
	}
	gcs := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(gcs)
	base := cloneGCHist(gcs[0].Value)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	start.Done()
	time.Sleep(d)
	goroutines := runtime.NumGoroutine() // workers (and maintenance) still live
	stopFlag.Store(true)
	ready.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	metrics.Read(gcs)
	return hammerResult{
		elapsed:    elapsed,
		mallocs:    ms1.Mallocs - ms0.Mallocs,
		bytes:      ms1.TotalAlloc - ms0.TotalAlloc,
		gcPauseP99: gcPauseP99(base, gcs[0].Value),
		goroutines: goroutines,
	}
}

// cloneGCHist copies a /gc/pauses:seconds sample's bucket counts (metrics.Read
// reuses the histogram buffers across calls, so the window's start state must
// be snapshotted). Nil when the runtime does not expose the histogram.
func cloneGCHist(v metrics.Value) *metrics.Float64Histogram {
	if v.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := v.Float64Histogram()
	return &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: h.Buckets,
	}
}

// gcPauseP99 diffs the process-lifetime GC pause histogram across the hammer
// window and cuts the p99 of the pauses that happened inside it, nanoseconds.
func gcPauseP99(base *metrics.Float64Histogram, end metrics.Value) uint64 {
	if base == nil || end.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	eh := end.Float64Histogram()
	if len(eh.Counts) != len(base.Counts) {
		return 0
	}
	diff := metrics.Float64Histogram{
		Counts:  make([]uint64, len(eh.Counts)),
		Buckets: eh.Buckets,
	}
	for i, c := range eh.Counts {
		diff.Counts[i] = c - base.Counts[i]
	}
	return obs.HistogramQuantileNanos(&diff, 0.99)
}

// startObs builds the run's observability layer when Options ask for one
// (nil otherwise): registry + flight recorder + live HTTP endpoint.
// register hooks the measured structures into the registry before the
// endpoint goes live; ObsReady fires with the bound address before the
// hammer phase starts.
func startObs(o Options, register func(r *obs.Registry, fr *obs.FlightRecorder)) *obs.Server {
	if o.ObsAddr == "" && o.ObsReady == nil {
		return nil
	}
	r := obs.NewRegistry()
	fr := obs.NewFlightRecorder(4096)
	r.SetFlight(fr)
	obs.RegisterRuntime(r)
	register(r, fr)
	addr := o.ObsAddr
	if addr == "" {
		addr = ":0"
	}
	srv, err := obs.Serve(addr, r)
	if err != nil {
		panic(err)
	}
	if o.ObsReady != nil {
		o.ObsReady(srv.Addr())
	}
	return srv
}

// registerLatency exposes the run's merged per-worker latency histograms as
// the registry's op_latency_nanos family (label op="all" — the per-kind
// series come from an attached tracer). The merge runs at scrape time, off
// the workers' hot path.
func registerLatency(r *obs.Registry, workers []*Runner) {
	r.RegisterCollector(func(emit func(obs.Sample)) {
		var s obs.HistSnapshot
		for _, w := range workers {
			s = s.Add(w.latH.Snapshot())
		}
		emit(obs.Sample{Name: "op_latency_nanos", Label: `op="all"`, Kind: obs.KindHistogram,
			Help: "Sampled per-operation latency across all op kinds, nanoseconds.", Hist: &s})
	})
}

func newResult(o Options, cm stm.ContentionManager, shards int, elapsed time.Duration) Result {
	dist := o.Workload.Dist
	if dist == "" {
		dist = DistUniform
	}
	batch := o.Batch
	if batch <= 1 {
		batch = 0
	}
	return Result{
		Kind: o.Kind, Mode: o.Mode, Threads: o.Threads,
		Shards: shards, CM: cm.Name(), Dist: dist, Batch: batch, Elapsed: elapsed,
	}
}

func (r *Result) addWorker(w *Runner) {
	r.Ops += w.Ops
	r.EffectiveUpdates += w.EffUpdates
	r.EffectiveMoves += w.EffMoves
	r.RangeOps += w.RangeOps
	r.RangeItems += w.RangeItems
	r.XactOps += w.XactOps
	r.XactMoves += w.XactMoves
	r.latHist = r.latHist.Add(w.latH.Snapshot())
	if xs, ok := w.t.(XactStatser); ok {
		r.Xact.Add(xs.XactStats())
	}
}

func (r *Result) finish() {
	r.Throughput = float64(r.Ops) / (float64(r.Elapsed.Nanoseconds()) / 1e3)
	if r.Ops > 0 {
		r.EffectiveRatio = float64(r.EffectiveUpdates) / float64(r.Ops)
		r.AllocsPerOp = float64(r.hammerMallocs) / float64(r.Ops)
		r.BytesPerOp = float64(r.hammerBytes) / float64(r.Ops)
	}
	r.Batches = r.STM.Batches
	r.BatchedOps = r.STM.BatchedOps
	if r.Batches > 0 {
		r.AvgBatch = float64(r.BatchedOps) / float64(r.Batches)
	}
	if r.latHist.Count > 0 {
		r.P50Nanos = r.latHist.Quantile(0.50)
		r.P99Nanos = r.latHist.Quantile(0.99)
	}
}

// fill initializes the set: every key in [0, keyRange) is inserted with
// probability 1/2, in a shuffled order so that even the never-rebalancing
// tree starts from an ordinary random BST (inserting in ascending order
// would hand it a linked list before the measurement begins). Maintenance,
// where present, is then quiesced so every library starts balanced, as the
// paper's initialized sets do.
func fill(m trees.Map, s *stm.STM, keyRange uint64, seed int64) {
	th := s.NewThread()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := rng.Perm(int(keyRange))
	for _, k := range keys {
		if rng.Intn(2) == 0 {
			m.Insert(th, uint64(k), uint64(k))
		}
	}
	trees.Quiesce(m, 1<<20)
}

// fillForest applies exactly the fill discipline above through a routing
// handle, so a forest starts from the same expected set as the bare tree.
func fillForest(f *forest.Forest, keyRange uint64, seed int64) {
	h := f.NewHandle()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := rng.Perm(int(keyRange))
	for _, k := range keys {
		if rng.Intn(2) == 0 {
			h.Insert(uint64(k), uint64(k))
		}
	}
	f.Quiesce(1 << 20)
}

// Target abstracts what a Runner hammers: a bare tree bound to one STM
// thread, or a forest handle that routes every key to its shard. The method
// set is deliberately the per-goroutine accessor surface shared by both
// (forest.Handle and repro.Handle satisfy it directly).
type Target interface {
	Insert(k, v uint64) bool
	Delete(k uint64) bool
	Contains(k uint64) bool
	Move(src, dst uint64) bool
	Range(lo, hi uint64, fn func(k, v uint64) bool) bool
	// SameShard reports key co-location (always true on unsharded targets);
	// the transfer workload's cross-shard dial steers key selection with it.
	SameShard(k1, k2 uint64) bool
	// Atomic runs fn as one atomic multi-key transaction (the cross-shard
	// coordinator on a forest, its single-shard fallback on a bare tree).
	Atomic(fn func(t *ftx.Tx) error) error
}

// XactStatser is the optional coordinator-statistics surface of a Target
// (forest.Handle, repro.Handle and treeTarget all provide it); Run sums it
// into Result.Xact.
type XactStatser interface {
	XactStats() ftx.Stats
}

// treeTarget adapts (trees.Map, *stm.Thread) to Target, with a one-shard
// coordinator for the transfer workload.
type treeTarget struct {
	m     trees.Map
	th    *stm.Thread
	coord *ftx.Coordinator
	mv    trees.Mover
}

func newTreeTarget(m trees.Map, th *stm.Thread) *treeTarget {
	return &treeTarget{m: m, th: th, coord: ftx.NewCoordinator(ftx.Single(m, th))}
}

func (t *treeTarget) Insert(k, v uint64) bool   { return t.m.Insert(t.th, k, v) }
func (t *treeTarget) Delete(k uint64) bool      { return t.m.Delete(t.th, k) }
func (t *treeTarget) Contains(k uint64) bool    { return t.m.Contains(t.th, k) }
func (t *treeTarget) Move(src, dst uint64) bool { return trees.MoveWith(&t.mv, t.m, t.th, src, dst) }
func (t *treeTarget) Range(lo, hi uint64, fn func(k, v uint64) bool) bool {
	return t.m.Range(t.th, lo, hi, fn)
}
func (t *treeTarget) SameShard(k1, k2 uint64) bool           { return true }
func (t *treeTarget) Atomic(fn func(tx *ftx.Tx) error) error { return t.coord.Run(fn) }
func (t *treeTarget) XactStats() ftx.Stats                   { return t.coord.Stats() }

// Runner executes one thread's operation stream against a Target; the Run
// harness drives one per worker, and the root-level testing.B benchmarks
// drive them directly with b.N-controlled iteration.
type Runner struct {
	t   Target
	th  *stm.Thread // nil for forest runners (stats come from the forest)
	rng *rand.Rand
	wl  Workload
	gen *ZipfGen // non-nil iff wl.Dist == DistZipf

	Ops        uint64 // operations completed
	EffUpdates uint64 // updates that modified the abstraction
	EffMoves   uint64 // moves that relocated a value
	RangeOps   uint64 // ordered range scans completed
	RangeItems uint64 // elements visited by range scans in total
	XactOps    uint64 // multi-key transfer transactions completed
	XactMoves  uint64 // transfers that actually moved a unit

	// insert/delete alternation state for effective mode: keys this worker
	// inserted and has not yet deleted.
	owned    []uint64
	doInsert bool
	// xkeys is the reusable per-transfer key buffer.
	xkeys []uint64

	// Latency histogram: every latSampleEvery-th operation is timed into
	// latH, the worker's op_latency_nanos log2 histogram (the same family
	// the obs registry serves — fixed size, lock-free, no reservoir
	// bookkeeping). Run merges the workers' histograms for the percentile
	// columns and registers them with the run's registry when one is up.
	latH    *obs.Histogram
	latSeen uint64
}

// latSampleEvery is the latency sampling cadence: timing every op would put
// a time.Now() pair on the critical path of sub-µs operations, so only
// every latSampleEvery-th op is measured (~2ns/op amortized).
const latSampleEvery = 32

// NewRunner creates a Runner hammering a bare tree through one STM thread,
// with its own deterministic random stream.
func NewRunner(m trees.Map, th *stm.Thread, wl Workload, seed int64) *Runner {
	r := NewTargetRunner(newTreeTarget(m, th), wl, seed)
	r.th = th
	return r
}

// NewTargetRunner creates a Runner hammering any Target (e.g. a
// forest.Handle) with its own deterministic random stream.
func NewTargetRunner(t Target, wl Workload, seed int64) *Runner {
	wl.prepareZipf()
	r := &Runner{t: t, rng: rand.New(rand.NewSource(seed)), wl: wl,
		latH: &obs.Histogram{}}
	if wl.Dist == DistZipf {
		r.gen = newZipfGenFromCDF(r.rng, wl.zipfCDF)
	}
	return r
}

// Thread exposes the runner's STM thread (for statistics collection); nil
// when the runner targets a forest.
func (w *Runner) Thread() *stm.Thread { return w.th }

// Step executes one operation drawn from the workload mix, timing every
// latSampleEvery-th one into the latency reservoir.
func (w *Runner) Step() {
	w.latSeen++
	if w.latSeen%latSampleEvery == 0 {
		t0 := time.Now()
		w.step()
		w.recordLatency(int64(time.Since(t0)))
	} else {
		w.step()
	}
	w.Ops++
}

// recordLatency feeds one measured op duration into the worker's latency
// histogram (three uncontended atomic adds, no allocation, no eviction).
func (w *Runner) recordLatency(d int64) {
	if d < 0 {
		d = 0
	}
	w.latH.Record(uint64(d))
}

// step executes one operation drawn from the workload mix.
func (w *Runner) step() {
	if w.wl.RangeFrac > 0 || w.wl.XactFrac > 0 {
		p := w.rng.Float64()
		if p < w.wl.RangeFrac {
			w.rangeScan()
			return
		}
		if p < w.wl.RangeFrac+w.wl.XactFrac {
			w.xact()
			return
		}
	}
	roll := w.rng.Intn(100)
	switch {
	case roll < w.wl.MovePercent:
		src := w.key(false)
		dst := w.key(true)
		if w.t.Move(src, dst) {
			w.EffMoves++
			w.EffUpdates++
		}
	case roll < w.wl.UpdatePercent:
		if w.wl.Effective {
			w.effectiveUpdate()
		} else {
			w.randomUpdate()
		}
	default:
		w.t.Contains(w.key(w.rng.Intn(2) == 0))
	}
}

// rangeScan performs one ordered scan over a window of the key space
// starting at a key drawn from the workload distribution, counting the
// elements visited (the per-shard snapshot+merge cost on a forest, the
// bounded in-order traversal on a bare tree).
func (w *Runner) rangeScan() {
	ln := w.wl.RangeLen
	if ln == 0 {
		ln = DefaultRangeLen
	}
	lo := w.key(false)
	hi := lo + ln - 1
	if hi < lo { // wrapped past the top of the key space
		hi = ^uint64(0)
	}
	var items uint64
	w.t.Range(lo, hi, func(_, _ uint64) bool {
		items++
		return true
	})
	w.RangeOps++
	w.RangeItems += items
}

// xact performs one multi-key transfer transaction: read XactKeys keys
// through the cross-shard coordinator and atomically move one unit of
// value from the richest present key to the poorest. The cross-shard dial
// (Workload.XactCrossFrac) decides whether the keys are drawn freely over
// the key space or confined to the first key's shard (the coordinator's
// single-shard fallback path).
func (w *Runner) xact() {
	n := w.wl.XactKeys
	if n < 2 {
		n = DefaultXactKeys
	}
	cross := w.rng.Float64() < w.wl.XactCrossFrac
	keys := w.xkeys[:0]
	first := w.key(false)
	keys = append(keys, first)
pick:
	for draws := 0; len(keys) < n && draws < 16*n; draws++ {
		k := w.key(false)
		if !cross {
			// Confine to the first key's shard, bounded rejection sampling;
			// give up after a while so tiny key ranges cannot spin forever.
			for tries := 0; !w.t.SameShard(first, k); tries++ {
				if tries >= 64 {
					break pick
				}
				k = w.key(false)
			}
		}
		dup := false
		for _, have := range keys {
			if have == k {
				dup = true
				break
			}
		}
		if !dup {
			keys = append(keys, k)
		}
	}
	w.xkeys = keys
	if len(keys) < 2 {
		return
	}
	moved := false
	w.t.Atomic(func(tx *ftx.Tx) error {
		moved = false
		var rich, poor uint64
		var richV, poorV uint64
		found := 0
		for _, k := range keys {
			v, ok := tx.Get(k)
			if !ok {
				continue
			}
			if found == 0 || v > richV {
				rich, richV = k, v
			}
			if found == 0 || v < poorV {
				poor, poorV = k, v
			}
			found++
		}
		if found < 2 || rich == poor || richV == 0 {
			return nil // nothing to transfer; commits as a read-only xact
		}
		tx.Put(rich, richV-1)
		tx.Put(poor, poorV+1)
		moved = true
		return nil
	})
	w.XactOps++
	if moved {
		w.XactMoves++
	}
}

// effectiveUpdate alternates inserting a fresh key with deleting a
// previously inserted one, keeping the set size stable and the effective
// ratio close to the attempted one.
func (w *Runner) effectiveUpdate() {
	if w.doInsert || len(w.owned) == 0 {
		k := w.key(true)
		if w.t.Insert(k, k) {
			w.owned = append(w.owned, k)
			w.EffUpdates++
			w.doInsert = false
		}
		return
	}
	k := w.owned[len(w.owned)-1]
	w.owned = w.owned[:len(w.owned)-1]
	if w.wl.Biased {
		// Deletions target low keys under bias; deleting an owned key
		// would cancel the skew the workload is supposed to create.
		k = w.key(false)
	}
	if w.t.Delete(k) {
		w.EffUpdates++
	}
	w.doInsert = true
}

// randomUpdate attempts an insert or delete of a random key with equal
// probability (Table 1's regime: the expected size stays constant, failures
// count as read-only operations).
func (w *Runner) randomUpdate() {
	k := w.key(w.rng.Intn(2) == 0)
	if w.rng.Intn(2) == 0 {
		if w.t.Insert(k, k) {
			w.EffUpdates++
		}
	} else {
		if w.t.Delete(k) {
			w.EffUpdates++
		}
	}
}

// key draws a key from the workload's distribution; under bias, keys for
// inserts (forInsert=true) are skewed high and keys for deletes/lookups
// low, by ±U[0..9] as in the paper.
func (w *Runner) key(forInsert bool) uint64 {
	var k uint64
	if w.gen != nil {
		k = w.gen.Uint64()
	} else {
		k = uint64(w.rng.Int63n(int64(w.wl.KeyRange)))
	}
	if !w.wl.Biased {
		return k
	}
	d := uint64(w.rng.Intn(10))
	if forInsert {
		k += d
		if k >= w.wl.KeyRange {
			k = w.wl.KeyRange - 1
		}
	} else {
		if k < d {
			k = 0
		} else {
			k -= d
		}
	}
	return k
}
