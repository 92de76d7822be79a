package durable

import (
	"repro/internal/obs"
)

// SetFlightRecorder attaches a flight recorder: from now on the log records
// checkpoints, WAL stalls, drops and rotations into it.
// Attach before the first append (repro.Open does);
// a nil recorder detaches.
func (l *Log) SetFlightRecorder(fr *obs.FlightRecorder) {
	l.mu.Lock()
	l.fr = fr
	l.mu.Unlock()
}

// SetTracer attaches a span tracer: records appended under a sampled
// operation's trace id (Append's traceID) record one SpanWALAppend
// each, stretching from the append to the fsync that made the record
// durable. A nil tracer detaches; spans already pending are dropped by the
// nil-safe recorder.
func (l *Log) SetTracer(t *obs.Tracer) {
	l.mu.Lock()
	l.tracer = t
	l.mu.Unlock()
}

// RegisterObs registers the log's counters and latency histograms with an
// observability registry. The counter families are collected from the same
// mutex-guarded Stats struct every other reader uses — one consistent
// snapshot per scrape, never field-by-field torn reads. The histograms
// (fsync latency, checkpoint duration) are recorded by the log itself once
// registered.
func (l *Log) RegisterObs(r *obs.Registry) {
	syncH := r.Histogram("durable_sync_nanos", "fsync latency of the live WAL segment, nanoseconds.")
	ckptH := r.Histogram("durable_checkpoint_nanos", "Wall time per checkpoint, nanoseconds.")
	l.mu.Lock()
	l.syncH = syncH
	l.ckptH = ckptH
	l.mu.Unlock()
	r.RegisterCollector(func(emit func(obs.Sample)) {
		st := l.Stats()
		counter := func(name, help string, v uint64) {
			emit(obs.Sample{Name: name, Kind: obs.KindCounter, Help: help, Value: float64(v)})
		}
		counter("durable_wal_records_total", "Records appended, one per committed transaction.", st.Records)
		counter("durable_wal_bytes_total", "Framed bytes appended.", st.Bytes)
		counter("durable_wal_flushes_total", "Append-buffer writes to the live segment.", st.Flushes)
		counter("durable_wal_syncs_total", "fsyncs of the live segment.", st.Syncs)
		counter("durable_wal_stalls_total", "Appends that hit the unsynced-bytes bound and fsynced inline.", st.Stalls)
		counter("durable_wal_dropped_total", "Records not logged (oversize, or appended while wedged).", st.Dropped)
		counter("durable_wal_rotations_total", "Segment rotations.", st.Rotations)
		counter("durable_checkpoints_total", "Checkpoints sealed.", st.Checkpoints)
		counter("durable_skipped_checkpoints_total", "Checkpoints skipped because nothing was appended or dropped since the last seal.", st.SkippedCheckpoints)
		counter("durable_checkpoint_pairs_total", "Pairs written across all checkpoints.", st.CheckpointPairs)
		counter("durable_checkpoint_bytes_total", "Bytes written across all checkpoint files.", st.CheckpointBytes)
		counter("durable_files_removed_total", "Obsolete segments and checkpoints deleted.", st.FilesRemoved)
	})
}

// RecordRecovery records a completed recovery pass into the flight
// recorder: the durable directory was replayed into memory (Open did it,
// or a harness re-opened a finished run's directory to time restart cost).
func RecordRecovery(fr *obs.FlightRecorder, rec *Recovery) {
	if fr == nil || rec == nil {
		return
	}
	fr.Record(obs.EvRecovery, rec.Elapsed, int64(rec.OpsApplied), int64(rec.Records))
}
