// Command microbench runs one synchrobench-style integer-set benchmark and
// prints CSV, mirroring the micro-benchmark of the paper's §5.2–5.4 and the
// post-paper scaling dimensions (sharded forest, contention management,
// Zipfian key skew). Example:
//
//	microbench -tree sf-opt -threads 8 -update 20 -duration 2s -range 8192
//	microbench -tree rb -mode elastic -update 10
//	microbench -tree nr -biased -update 20
//	microbench -tree sf-opt -shards 8 -dist zipf -cm karma -threads 8
//	microbench -tree sf-opt -shards 8 -range-frac 0.1 -range-len 200
//	microbench -tree sf-opt -shards 16 -maint-workers 2 -dist zipf
//	microbench -tree sf-opt -shards 8 -xact-frac 0.2 -xact-keys 4 -xact-cross 0.5
//
// Trees: sf, sf-opt, rb, avl, nr. Modes: ctl, etl, elastic. Contention
// managers: suicide, backoff, karma. Distributions: uniform, zipf.
//
// -range-frac makes the given fraction of all operations ordered range
// scans over windows of -range-len keys (the -update percentage then
// applies to the remaining non-scan operations); the CSV reports the scan
// count and the total elements visited. On a sharded run every scan
// snapshots and
// merges all shards, so the per-shard rows' op counts include one touch per
// shard per scan (the merge cost the forest pays for hash routing).
//
// -xact-frac makes the given fraction of all operations multi-key transfer
// transactions: each reads -xact-keys keys through the cross-shard
// transaction coordinator (internal/ftx) and atomically moves one unit of
// value from the richest present key to the poorest. -xact-cross is the
// cross-shard dial: that fraction of transfers draws keys freely over the
// key space (on a sharded run, almost surely spanning shards and paying
// the shard-ordered two-phase commit), the rest are confined to one shard
// and take the coordinator's single-shard fallback. The xact_* CSV columns
// report completed transfers, units moved, and the coordinator's
// commit/fallback/abort/intent-conflict accounting.
//
// -durable attaches a write-ahead log (internal/durable) in a temporary
// directory: every committed update appends one checksummed record (cross-
// shard transfers as one multi-shard record), checkpoints run every
// -checkpoint-every (default 500ms), and after the hammer phase the run
// performs a timed full recovery of the directory. -fsync switches from
// asynchronous group commit to per-operation fsync. The durable CSV columns
// report the log's record/byte/sync/checkpoint counters plus recovery_ms
// and recovered_keys. Incremental checkpointing adds -ckpt-compact (the
// delta-chain compaction period; 0 = default, negative = every checkpoint
// full) and the columns ckpt_compact, delta_checkpoints, ckpt_bytes (bytes
// written across checkpoint/delta/manifest files), ckpt_dirty_frac (mean
// dirty fraction per delta), wal_stalls/wal_dropped (group-commit
// backpressure), and recovery_ns/recovery_appliers/recovery_deltas for the
// timed segment-parallel recovery. A durable run always uses the forest
// path (shards=1 becomes a one-shard forest, as repro.Open arranges).
//
// -obs serves the live observability endpoint on the given address for the
// duration of the run: Prometheus text on /metrics (every layer's counter,
// gauge and histogram families — STM commit/abort-cause taxonomy per
// shard, tree maintenance, combiner batches, coordinator, WAL and
// checkpoints, Go runtime), a JSON snapshot on /snapshot, the
// flight-recorder event ring on /flight, and net/http/pprof under
// /debug/pprof/. The CSV additionally reports the abort-cause breakdown
// (aborts_validation .. aborts_unlogged, structural_commits/aborts) and
// the runtime columns gc_pause_p99_ns (p99 GC pause among cycles inside
// the hammer window) and goroutines (live count at the window's end) on
// every run, -obs or not.
//
// -maint-workers sizes the shared maintenance worker pool of a sharded run
// (0 = the forest default, min(shards, GOMAXPROCS/2)); the CSV reports the
// maintenance-efficiency columns — hints emitted/coalesced/dropped,
// targeted repairs vs full sweeps, pool busy time and worker utilization —
// so the sub-linear-maintenance-CPU claim of hint-driven maintenance is
// verifiable from the output alone. -maint-pacing sweeps the per-shard
// hint-drain pacing gap (forest.WithMaintPacing; 0 keeps the 2ms default).
//
// One aggregate CSV row is always printed; with -shards > 1 a per-shard
// breakdown row ("shard,<i>,...") follows for each shard.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/durable"
	"repro/internal/stm"
	"repro/internal/trees"
)

// obsReadyFunc announces the observability endpoint's bound address on
// stderr, which is what makes "-obs :0" usable. Nil when -obs is off.
func obsReadyFunc(addr string) func(string) {
	if addr == "" {
		return nil
	}
	return func(bound string) {
		fmt.Fprintf(os.Stderr, "microbench: observability endpoint on %s\n", bound)
	}
}

func main() {
	tree := flag.String("tree", "sf", "tree kind: sf|sf-opt|rb|avl|nr")
	mode := flag.String("mode", "ctl", "TM algorithm: ctl|etl|elastic")
	threads := flag.Int("threads", 1, "worker goroutines")
	update := flag.Int("update", 10, "attempted update percentage")
	movePct := flag.Int("move", 0, "move-operation percentage (within updates)")
	keyRange := flag.Uint64("range", 1<<13, "key range (expected size = range/2)")
	duration := flag.Duration("duration", time.Second, "measurement duration")
	biased := flag.Bool("biased", false, "biased workload (insert-high/delete-low)")
	attempted := flag.Bool("attempted", false, "use attempted updates instead of effective")
	seed := flag.Int64("seed", 42, "workload seed")
	shards := flag.Int("shards", 1, "key-space shards (1 = the paper's single-domain tree)")
	cm := flag.String("cm", "backoff", "contention manager: suicide|backoff|karma")
	dist := flag.String("dist", "uniform", "key distribution: uniform|zipf")
	zipfS := flag.Float64("zipf-s", bench.DefaultZipfS, "zipf skew exponent (with -dist zipf)")
	rangeFrac := flag.Float64("range-frac", 0, "fraction of operations that are ordered range scans (0..1)")
	rangeLen := flag.Uint64("range-len", bench.DefaultRangeLen, "key-space width of each range-scan window")
	xactFrac := flag.Float64("xact-frac", 0, "fraction of operations that are multi-key transfer transactions (0..1)")
	xactKeys := flag.Int("xact-keys", bench.DefaultXactKeys, "keys touched by each transfer transaction (>= 2)")
	xactCross := flag.Float64("xact-cross", 1, "fraction of transfers drawn freely across shards; the rest are confined to one shard (0..1)")
	maintWorkers := flag.Int("maint-workers", 0, "shared maintenance pool size on a sharded run (0 = default)")
	maintPacing := flag.Duration("maint-pacing", 0, "per-shard hint-drain pacing gap on a sharded run (0 = forest default, 2ms)")
	batch := flag.Int("batch", 0, "per-shard op-combiner batch capacity (<= 1 disables batching; > 1 forces the forest path)")
	batchWait := flag.Duration("batch-wait", 0, "with -batch: how long a batch runner lingers for more ops (0 = drain-only)")
	durableFlag := flag.Bool("durable", false, "attach a write-ahead log (temp dir) and time a post-run recovery")
	fsync := flag.Bool("fsync", false, "with -durable: fsync before every update returns instead of group commit")
	ckptEvery := flag.Duration("checkpoint-every", 0, "with -durable: periodic checkpoint interval (0 = 500ms, negative disables)")
	ckptCompact := flag.Int("ckpt-compact", 0, "with -durable: fold the delta chain into a fresh full base after this many incremental checkpoints (0 = default, negative = every checkpoint full)")
	yieldEvery := flag.Int("yield", 0, "STM interleaving simulation: yield every N accesses (0 off)")
	obsAddr := flag.String("obs", "", "serve the live observability endpoint (/metrics, /snapshot, /flight, /trace, /debug/pprof) on this address during the run, e.g. :9100")
	trace := flag.Int("trace", 0, "sample one in N operations into the span tracer (0 disables; > 0 forces the forest path)")
	header := flag.Bool("header", false, "print the CSV header line first")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile of the run to this file")
	flag.Parse()

	var m stm.Mode
	switch *mode {
	case "ctl":
		m = stm.CTL
	case "etl":
		m = stm.ETL
	case "elastic":
		m = stm.Elastic
	default:
		fmt.Fprintf(os.Stderr, "microbench: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	kind := trees.Kind(*tree)
	found := false
	for _, k := range trees.Kinds() {
		if k == kind {
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "microbench: unknown tree %q\n", *tree)
		os.Exit(2)
	}
	if _, err := stm.ManagerByName(*cm); err != nil {
		fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
		os.Exit(2)
	}
	var d bench.Dist
	switch bench.Dist(*dist) {
	case bench.DistUniform, bench.DistZipf:
		d = bench.Dist(*dist)
	default:
		fmt.Fprintf(os.Stderr, "microbench: unknown distribution %q (have %v)\n", *dist, bench.Dists())
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "microbench: -shards must be >= 1")
		os.Exit(2)
	}
	if *zipfS <= 0 {
		fmt.Fprintln(os.Stderr, "microbench: -zipf-s must be > 0")
		os.Exit(2)
	}
	if *rangeFrac < 0 || *rangeFrac >= 1 {
		fmt.Fprintln(os.Stderr, "microbench: -range-frac must be in [0, 1)")
		os.Exit(2)
	}
	if *rangeLen == 0 {
		fmt.Fprintln(os.Stderr, "microbench: -range-len must be >= 1")
		os.Exit(2)
	}
	if *maintWorkers < 0 {
		fmt.Fprintln(os.Stderr, "microbench: -maint-workers must be >= 0")
		os.Exit(2)
	}
	if *xactFrac < 0 || *xactFrac >= 1 {
		fmt.Fprintln(os.Stderr, "microbench: -xact-frac must be in [0, 1)")
		os.Exit(2)
	}
	if *rangeFrac+*xactFrac >= 1 {
		fmt.Fprintln(os.Stderr, "microbench: -range-frac + -xact-frac must be < 1 (the remainder is the plain operation mix)")
		os.Exit(2)
	}
	if *xactKeys < 2 {
		fmt.Fprintln(os.Stderr, "microbench: -xact-keys must be >= 2")
		os.Exit(2)
	}
	if *xactCross < 0 || *xactCross > 1 {
		fmt.Fprintln(os.Stderr, "microbench: -xact-cross must be in [0, 1]")
		os.Exit(2)
	}
	if *maintPacing < 0 {
		fmt.Fprintln(os.Stderr, "microbench: -maint-pacing must be >= 0")
		os.Exit(2)
	}
	if (*fsync || *ckptEvery != 0 || *ckptCompact != 0) && !*durableFlag {
		fmt.Fprintln(os.Stderr, "microbench: -fsync, -checkpoint-every and -ckpt-compact require -durable")
		os.Exit(2)
	}
	if *batch < 0 {
		fmt.Fprintln(os.Stderr, "microbench: -batch must be >= 0")
		os.Exit(2)
	}
	if *batchWait != 0 && *batch <= 1 {
		fmt.Fprintln(os.Stderr, "microbench: -batch-wait requires -batch > 1")
		os.Exit(2)
	}
	if *trace < 0 {
		fmt.Fprintln(os.Stderr, "microbench: -trace must be >= 0")
		os.Exit(2)
	}
	if *obsAddr != "" {
		// Catch address typos here with a bind probe: the bench layer treats
		// a listen failure as a programming error and panics.
		probe, err := net.Listen("tcp", *obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: -obs %s: %v\n", *obsAddr, err)
			os.Exit(2)
		}
		probe.Close()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	res := bench.Run(bench.Options{
		Kind:     kind,
		Mode:     m,
		Threads:  *threads,
		Duration: *duration,
		Workload: bench.Workload{
			KeyRange:      *keyRange,
			UpdatePercent: *update,
			MovePercent:   *movePct,
			Biased:        *biased,
			Effective:     !*attempted,
			Dist:          d,
			ZipfS:         *zipfS,
			RangeFrac:     *rangeFrac,
			RangeLen:      *rangeLen,
			XactFrac:      *xactFrac,
			XactKeys:      *xactKeys,
			XactCrossFrac: *xactCross,
		},
		Seed:              *seed,
		Shards:            *shards,
		CM:                *cm,
		YieldEvery:        *yieldEvery,
		MaintWorkers:      *maintWorkers,
		MaintPacing:       *maintPacing,
		Batch:             *batch,
		BatchWait:         *batchWait,
		Durable:           *durableFlag,
		Fsync:             *fsync,
		DurableCheckpoint: *ckptEvery,
		DurableCompact:    *ckptCompact,
		TraceEvery:        *trace,
		ObsAddr:           *obsAddr,
		// ObsReady alone would switch the endpoint on, so only set it when
		// -obs asked for one; it resolves ":0"-style addresses for the user.
		ObsReady: obsReadyFunc(*obsAddr),
	})

	// The ckpt_compact key column reports the effective compaction period
	// (the durable default when the flag is 0), so rows match across
	// artifacts whether or not the flag was spelled out.
	compactCol := *ckptCompact
	if compactCol == 0 {
		compactCol = durable.DefaultCompactEvery
	}

	if *header {
		fmt.Println("tree,mode,threads,shards,cm,dist,update,move,biased,range,range_frac,range_len,xact_frac,xact_keys,xact_cross,batch,duration_s,ops,throughput_ops_per_us,effective_ratio,allocs_per_op,bytes_per_op,range_scans,range_items,xact_ops,xact_moved,xact_commits,xact_fallbacks,xact_aborts,xact_intent_conflicts,commits,aborts,abort_rate,retries,backoff_ms,max_op_reads,spin_exhausted,rotations,maint_workers,hints_emitted,hints_coalesced,hints_dropped,targeted_repairs,sweep_passes,maint_busy_ms,worker_util,durable,fsync,ckpt_compact,wal_records,wal_atomic_records,wal_bytes,wal_syncs,wal_stalls,wal_dropped,checkpoints,delta_checkpoints,checkpoint_pairs,ckpt_bytes,ckpt_dirty_frac,recovery_ms,recovery_ns,recovery_appliers,recovery_deltas,recovered_keys,batched_ops,batches,avg_batch,p50_ns,p99_ns,aborts_validation,aborts_lock_wait,aborts_spin,aborts_explicit,aborts_coordinated,aborts_unlogged,structural_commits,structural_aborts,gc_pause_p99_ns,goroutines")
	}
	fmt.Printf("%s,%s,%d,%d,%s,%s,%d,%d,%t,%d,%.3f,%d,%.3f,%d,%.3f,%d,%.3f,%d,%.3f,%.3f,%.4f,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.4f,%t,%t,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.3f,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		kind, m, res.Threads, res.Shards, res.CM, res.Dist, *update, *movePct, *biased, *keyRange,
		*rangeFrac, *rangeLen, *xactFrac, *xactKeys, *xactCross, res.Batch,
		res.Elapsed.Seconds(), res.Ops, res.Throughput, res.EffectiveRatio,
		res.AllocsPerOp, res.BytesPerOp,
		res.RangeOps, res.RangeItems,
		res.XactOps, res.XactMoves, res.Xact.Commits, res.Xact.Fallbacks,
		res.Xact.Aborts, res.Xact.IntentConflicts,
		res.STM.Commits, res.STM.Aborts, res.STM.AbortRate(), res.STM.Retries,
		float64(res.STM.BackoffNanos)/1e6, res.STM.MaxOpReads, res.STM.SpinExhausted, res.Rotations,
		res.Pool.Workers, res.TreeStats.HintsEmitted, res.TreeStats.HintsCoalesced,
		res.TreeStats.HintsDropped, res.TreeStats.TargetedRepairs, res.TreeStats.Passes,
		float64(res.Pool.BusyNanos)/1e6, res.WorkerUtilization(),
		res.Durable, *fsync, compactCol, res.Wal.Records, res.Wal.AtomicRecords, res.Wal.Bytes,
		res.Wal.Syncs, res.Wal.Stalls, res.Wal.Dropped,
		res.Wal.Checkpoints, res.Wal.DeltaCheckpoints, res.Wal.CheckpointPairs,
		res.Wal.CheckpointBytes, res.CheckpointDirtyFrac(),
		float64(res.RecoveryNanos)/1e6, res.RecoveryNanos, res.RecoveryAppliers,
		res.RecoveryDeltas, res.RecoveredPairs,
		res.BatchedOps, res.Batches, res.AvgBatch, res.P50Nanos, res.P99Nanos,
		res.STM.AbortCauses[stm.AbortValidation], res.STM.AbortCauses[stm.AbortLockWait],
		res.STM.AbortCauses[stm.AbortSpinExhausted], res.STM.AbortCauses[stm.AbortExplicit],
		res.STM.AbortCauses[stm.AbortCoordinated], res.STM.AbortCauses[stm.AbortUnlogged],
		res.STM.StructuralCommits, res.STM.StructuralAborts,
		res.GCPauseP99Nanos, res.Goroutines)
	for si, sr := range res.PerShard {
		fmt.Printf("shard,%d,ops,%d,throughput_ops_per_us,%.3f,commits,%d,aborts,%d,abort_rate,%.4f\n",
			si, sr.Ops, sr.Throughput, sr.STM.Commits, sr.STM.Aborts, sr.STM.AbortRate())
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC() // flush the allocation accounting up to the run's end
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "microbench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}
}
