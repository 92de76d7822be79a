package stm

// AbortCause classifies why a transaction attempt aborted — the taxonomy
// that replaces staring at the single Aborts blob when attributing where
// retries come from. Every abort site in the package charges exactly one
// cause, so the per-cause counters always sum to Stats.Aborts.
type AbortCause uint8

const (
	// AbortValidation: a read-set (or elastic-window) validation failure —
	// some word this attempt read was overwritten after the snapshot and a
	// timestamp extension could not save it. The classic optimistic-read
	// conflict. (An attempt that never tried an extension because it logged
	// nothing is charged to AbortUnlogged instead.)
	AbortValidation AbortCause = iota
	// AbortLockWait: the attempt ran into a write lock held by a concurrent
	// transaction — a commit-time (or prepare-time) lock CAS lost the race,
	// or an ETL write found the word foreign-locked.
	AbortLockWait
	// AbortSpinExhausted: a read burned through its full spin budget twice
	// on a locked word and gave up rather than risk livelock.
	AbortSpinExhausted
	// AbortExplicit: user code called Tx.Restart — "impossible
	// observation" restarts of zombie attempts.
	AbortExplicit
	// AbortCoordinated: a prepared sub-transaction was dropped by its
	// cross-shard coordinator (Prepared.Drop) because some other shard of
	// the compound transaction failed.
	AbortCoordinated
	// AbortUnlogged: the unlogged first attempt of a read-only operation
	// (Thread.AtomicRO) met a word newer than its snapshot and, having no
	// read set to extend over, was retried with logging. Not contention:
	// the retry starts at once, without a pause.
	AbortUnlogged
	// NumAbortCauses sizes per-cause counter arrays.
	NumAbortCauses = iota
)

// String returns the snake_case cause name used in metric labels and CSV
// columns.
func (c AbortCause) String() string {
	switch c {
	case AbortValidation:
		return "validation"
	case AbortLockWait:
		return "lock_wait"
	case AbortSpinExhausted:
		return "spin_exhausted"
	case AbortExplicit:
		return "explicit"
	case AbortCoordinated:
		return "coordinated"
	case AbortUnlogged:
		return "unlogged"
	}
	return "unknown"
}

// Stats aggregates the counters a thread accumulates while executing
// transactions. The paper's Table 1 reports the maximum number of
// transactional reads per operation *including* the reads performed by
// aborted attempts; MaxOpReads captures exactly that quantity when the
// operation is delimited by a single Atomic call.
type Stats struct {
	// Commits counts successfully committed transactions.
	Commits uint64
	// Aborts counts aborted transaction attempts (each retry that fails
	// validation, loses a lock race, or is explicitly restarted).
	Aborts uint64
	// AbortCauses breaks Aborts down by cause; the entries always sum to
	// Aborts (see AbortCause).
	AbortCauses [NumAbortCauses]uint64
	// StructuralCommits/StructuralAborts are the subset of Commits/Aborts
	// charged by threads marked structural (Thread.MarkStructural): the
	// maintenance transactions the paper decouples from semantic
	// operations. Commits-StructuralCommits is the semantic commit count.
	StructuralCommits uint64
	StructuralAborts  uint64
	// Reads counts transactional reads, including those executed by
	// attempts that later aborted.
	Reads uint64
	// UReads counts unit reads (TinySTM unit loads); they are never
	// validated and never enter a read set.
	UReads uint64
	// Writes counts transactional writes, including aborted attempts.
	Writes uint64
	// MaxOpReads is the maximum over all operations of the number of
	// transactional reads the operation needed to complete, summed across
	// all of its aborted and committed attempts (Table 1's metric).
	MaxOpReads uint64
	// Extensions counts successful timestamp extensions (TinySTM-style
	// re-validation that advances the read snapshot instead of aborting).
	Extensions uint64
	// ElasticCuts counts reads dropped from elastic read sets.
	ElasticCuts uint64
	// Retries counts abort→retry transitions of AtomicMode's retry loop
	// (every aborted attempt of an Atomic operation charges one).
	Retries uint64
	// Prepares counts transaction attempts successfully driven to the
	// prepared state (Thread.Prepare) by a two-phase-commit coordinator;
	// whether each one then committed or rolled back shows up in Commits
	// and Aborts as usual (Prepared.Finalize / Prepared.Drop).
	Prepares uint64
	// BackoffNanos is the total time, in nanoseconds, this thread paused
	// between an abort and its retry (the suicide spin and yield, see
	// Thread.pause).
	BackoffNanos uint64
	// SpinExhausted counts the times a read or an eager lock acquisition
	// burned through its full spin budget on a locked word and had to yield
	// the processor (Word.sampleUnlocked and the ETL acquisition loop). A
	// high value flags that the spin budget, not the abort rate, is where
	// wall-clock time goes.
	SpinExhausted uint64
}

// Add accumulates o into s. Max-type counters take the maximum.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	for i := range s.AbortCauses {
		s.AbortCauses[i] += o.AbortCauses[i]
	}
	s.StructuralCommits += o.StructuralCommits
	s.StructuralAborts += o.StructuralAborts
	s.Reads += o.Reads
	s.UReads += o.UReads
	s.Writes += o.Writes
	s.Extensions += o.Extensions
	s.ElasticCuts += o.ElasticCuts
	s.Retries += o.Retries
	s.Prepares += o.Prepares
	s.BackoffNanos += o.BackoffNanos
	s.SpinExhausted += o.SpinExhausted
	if o.MaxOpReads > s.MaxOpReads {
		s.MaxOpReads = o.MaxOpReads
	}
}

// AbortCauseSum returns the sum of the per-cause abort counters; it equals
// Aborts by construction (the oracle suites assert this invariant).
func (s *Stats) AbortCauseSum() uint64 {
	var sum uint64
	for _, c := range s.AbortCauses {
		sum += c
	}
	return sum
}

// AbortRate returns aborts / (commits+aborts), or 0 when no transaction ran.
func (s *Stats) AbortRate() float64 {
	tot := s.Commits + s.Aborts
	if tot == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(tot)
}
