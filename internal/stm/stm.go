// Package stm implements a word-based software transactional memory in the
// style of TinySTM [Felber, Fetzer, Riegel, PPoPP 2008] and TL2, providing
// the substrate required by the speculation-friendly binary search tree of
// Crain, Gramoli and Raynal (PPoPP 2012) and by the baseline transactional
// trees it is evaluated against.
//
// The engine supports the three synchronization algorithms used in the
// paper's evaluation:
//
//   - CTL: commit-time locking (lazy acquirement, TinySTM-CTL). Writes are
//     buffered and write locks are taken only at commit.
//   - ETL: encounter-time locking (eager acquirement, TinySTM-ETL). A write
//     lock is taken at the first write to a word and held until commit.
//   - Elastic: elastic transactions (E-STM) [Felber, Gramoli, Guerraoui,
//     DISC 2009]. Before its first write a transaction validates only a
//     small hand-over-hand window of trailing reads and "cuts" older reads
//     from its read set; after the first write it behaves like CTL.
//
// In every mode transactions use invisible reads validated against a global
// version clock, and the optional URead ("unit read", TinySTM's unit load)
// returns the latest committed value of a word without recording anything in
// the read set. URead is the explicit-call extension exercised by the
// optimized speculation-friendly tree (paper §3.3). Thread.AtomicRO applies
// the same economy to whole read-only operations (scans): its first attempt
// reads consistently at its snapshot but logs nothing, and only a retry
// pays for a read set.
//
// Transactional data lives in Word values (a 64-bit value guarded by a
// versioned lock). All accesses go through atomic operations, so programs
// built on this package are free of data races in the sense of the Go memory
// model even while the STM protocol itself tolerates concurrent access.
//
// Aborts are delivered by panicking with an internal sentinel that the
// Thread.Atomic retry loop recovers; user code inside a transaction simply
// calls Read/Write/URead as straight-line code, mirroring the pseudocode of
// the paper.
package stm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode selects the synchronization algorithm used by a transaction.
type Mode int

const (
	// CTL is commit-time locking (lazy acquirement), the TinySTM-CTL
	// configuration used for the paper's main experiments (Table 1, Fig. 3).
	CTL Mode = iota
	// ETL is encounter-time locking (eager acquirement), the TinySTM-ETL
	// configuration of Fig. 4 (right).
	ETL
	// Elastic implements elastic transactions (E-STM), the TM of
	// Fig. 4 (left) and Fig. 5(a).
	Elastic
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case CTL:
		return "CTL"
	case ETL:
		return "ETL"
	case Elastic:
		return "Elastic"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// cacheLinePad is one cache line (64 bytes on every architecture this
// package targets) of padding. Hot fields that other goroutines write — or
// that this goroutine writes while others read neighbours — are fenced with
// a pad on both sides, because Go guarantees nothing about the line a struct
// starts on.
type cacheLinePad struct{ _ [8]uint64 }

// STM is a transactional-memory domain: a global version clock plus the set
// of threads registered to run transactions against it. Distinct STM
// instances are fully independent; Words must only ever be accessed through
// transactions of a single STM instance.
//
// Field layout is deliberate: the clock is the single most write-contended
// word in the domain (every writing commit advances it, every begin reads
// it), so it owns a cache line; the read-mostly configuration that every
// transactional access consults must never share that line, or each commit
// would invalidate every thread's cached copy of the config.
type STM struct {
	_     cacheLinePad
	clock atomic.Uint64
	_     cacheLinePad

	// Read-mostly configuration: written by New, read-only afterwards.
	defaultMode Mode

	// yieldEvery > 0 makes every thread yield the processor after that
	// many transactional accesses. On hosts with fewer cores than worker
	// threads this simulates the transaction overlap a multicore testbed
	// produces naturally: without it, goroutines on one core serialize and
	// conflicts — the phenomenon the paper measures — almost never occur.
	// Cached on the Thread at registration.
	yieldEvery int

	// gate counts the read-only operations (AtomicRO) that lost gateRetries
	// attempts in a row and now hold new writing attempts back: a writing
	// attempt that finds gate non-zero waits before it begins
	// (Thread.waitGate). Writers already running finish, so a starving scan
	// meets a finite set of conflicts and then none — without the gate a
	// scan wider than the gap between two commits never completes. It
	// changes only when a scan starves, so it sits with the read-mostly
	// configuration every attempt's begin already loads.
	gate atomic.Int32

	// Registration state: touched only by NewThread/Threads, cold.
	mu      sync.Mutex
	threads []*Thread
}

// Option configures an STM instance.
type Option func(*STM)

// WithMode sets the default transaction mode used by Thread.Atomic.
func WithMode(m Mode) Option { return func(s *STM) { s.defaultMode = m } }

// WithYield makes every thread call runtime.Gosched after every n
// transactional accesses (0 disables). It exists to reproduce multicore
// transaction overlap on hosts with few cores; see the field comment.
func WithYield(n int) Option { return func(s *STM) { s.yieldEvery = n } }

// New creates an empty STM domain with the version clock at zero.
func New(opts ...Option) *STM {
	s := &STM{defaultMode: CTL}
	for _, o := range opts {
		o(s)
	}
	return s
}

// DefaultMode reports the mode used by Thread.Atomic.
func (s *STM) DefaultMode() Mode { return s.defaultMode }

// Now returns the current value of the global version clock. It is exported
// for tests and instrumentation only.
func (s *STM) Now() uint64 { return s.clock.Load() }

// NewThread registers a new transactional thread. Each concurrent goroutine
// running transactions must own a distinct Thread; Threads are not safe for
// concurrent use by multiple goroutines.
func (s *STM) NewThread() *Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	th := &Thread{
		stm:  s,
		slot: uint64(len(s.threads) + 1), // slot 0 is reserved as "no owner"
		// Cache the per-access config on the thread: yieldEvery is
		// consulted on every transactional access, and loading it through
		// the STM pointer costs an extra dependent cache line per access.
		yieldEvery: s.yieldEvery,
	}
	th.tx.init(th)
	s.threads = append(s.threads, th)
	return th
}

// Threads returns a snapshot of all registered threads.
func (s *STM) Threads() []*Thread {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Thread, len(s.threads))
	copy(out, s.threads)
	return out
}

// snapshotThreads appends every registered thread's pending flag and
// completed-operation count to buf: the snapshot a limbo generation is
// sealed under (Thread.Reclaim). It allocates only when buf must grow.
func (s *STM) snapshotThreads(buf []threadSnap) []threadSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, th := range s.threads {
		buf = append(buf, threadSnap{th: th, pending: th.Pending(), count: th.OpCount()})
	}
	return buf
}

// TotalStats sums the statistics of every registered thread.
func (s *STM) TotalStats() Stats {
	var t Stats
	for _, th := range s.Threads() {
		t.Add(th.Stats())
	}
	return t
}

// LiveStats is the subset of Stats that can be read race-free while the
// domain's threads are running: each thread publishes these counters with
// atomic stores right after its plain owner-local bump (see
// Thread.noteCommit). The counters are individually current; as with any
// live scrape they are not mutually transactional.
type LiveStats struct {
	Commits           uint64
	Aborts            uint64
	Retries           uint64
	AbortCauses       [NumAbortCauses]uint64
	StructuralCommits uint64
	StructuralAborts  uint64
	SpinExhausted     uint64
}

// Add accumulates o into s.
func (s *LiveStats) Add(o LiveStats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Retries += o.Retries
	for i := range s.AbortCauses {
		s.AbortCauses[i] += o.AbortCauses[i]
	}
	s.StructuralCommits += o.StructuralCommits
	s.StructuralAborts += o.StructuralAborts
	s.SpinExhausted += o.SpinExhausted
}

// LiveStats sums the live-published counters of every registered thread.
// Unlike TotalStats it is safe to call at any time, from any goroutine,
// without quiescing the domain — it is the scrape path of the
// observability layer.
func (s *STM) LiveStats() LiveStats {
	var t LiveStats
	for _, th := range s.Threads() {
		t.Add(th.liveStats())
	}
	return t
}
