package sftree

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Scheduling parameters of the maintenance sweep. A sweep that found work
// is followed by another sweepGapMin later (after the duty-share rest);
// every idle sweep doubles the gap up to sweepGapMax, so an idle tree
// costs asymptotically no CPU while eventual propagation and GC-epoch
// progress stay guaranteed.
const (
	sweepGapMin = time.Millisecond
	sweepGapMax = 256 * time.Millisecond
	// maintRest is the maintenance duty share: a worker that has just spent
	// d on a sweep that found work stays off the CPU for maintRest·d before
	// it looks again, so it takes at most 1/(1+maintRest) of a core however
	// much work there is — without the rest one worker sweeps continuously
	// beside the clients it is meant to serve. Only stopping the driver
	// (Close, Pause) cuts the rest short; Quiesce and manual passes are
	// exempt.
	maintRest = 3
)

// Driver runs the maintenance sweeps (RunMaintenancePass) of a set of
// trees on a fixed pool of worker goroutines: one worker for a standalone
// tree, a shared pool for the shards of a forest, so maintenance CPU is
// bounded by the worker count rather than the tree count. Each tree keeps
// its own sweep deadline and backoff gap, and a worker sweeps a tree only
// while holding the tree's claim flag, which keeps every tree
// single-driver under a shared pool. Workers start at NewDriver and run
// until Close.
type Driver struct {
	trees   []*driven
	workers int
	rr      atomic.Uint64 // rotating scan offset, for fairness
	fr      atomic.Pointer[obs.FlightRecorder]

	busyNanos atomic.Uint64
	sweeps    atomic.Uint64

	// mu serializes Close and the Pause bracket and guards the fields
	// below. quit is closed to stop the running workers and is nil while
	// they are stopped.
	mu     sync.Mutex
	quit   chan struct{}
	wg     sync.WaitGroup
	closed bool
}

// driven is one tree's scheduling state.
type driven struct {
	t     *Tree
	claim atomic.Bool
	// nextSweep is the unix-nano deadline of the tree's next sweep and gap
	// the current backoff gap.
	nextSweep atomic.Int64
	gap       atomic.Int64
}

// DriverStats is a snapshot of a driver's activity.
type DriverStats struct {
	// Workers is the pool size, which never grows with the tree count;
	// it survives Close.
	Workers int
	// BusyNanos is the cumulative time workers spent sweeping; utilization
	// over a window of length d with w workers is BusyNanos / (w·d).
	BusyNanos uint64
	// Sweeps counts the sweeps the workers ran.
	Sweeps uint64
}

// NewDriver starts workers goroutines sweeping ts, every tree due at once.
// A driver with no workers runs nothing; its Pause still serializes the
// callers that drive the trees by hand. With workers > 0, ts must not be
// empty, and nobody else may drive the trees until Close or inside a Pause.
func NewDriver(workers int, ts ...*Tree) *Driver {
	d := &Driver{workers: workers, trees: make([]*driven, len(ts))}
	now := time.Now().UnixNano()
	for i, t := range ts {
		dt := &driven{t: t}
		dt.nextSweep.Store(now)
		dt.gap.Store(int64(sweepGapMin))
		d.trees[i] = dt
	}
	d.start()
	return d
}

// Stats returns the driver's activity counters; they accumulate across
// Pause and survive Close.
func (d *Driver) Stats() DriverStats {
	return DriverStats{Workers: d.workers, BusyNanos: d.busyNanos.Load(), Sweeps: d.sweeps.Load()}
}

// SetFlightRecorder makes every sweep that found work record an
// obs.EvMaintSweep event into fr (nil detaches). Safe while running.
func (d *Driver) SetFlightRecorder(fr *obs.FlightRecorder) { d.fr.Store(fr) }

// Close stops the workers for good, waiting for a sweep in flight and
// cutting a rest short. It is idempotent and safe beside Pause.
func (d *Driver) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed {
		d.closed = true
		d.stop()
	}
}

// Pause stops the workers as Close does and returns the function that
// restarts them; until it runs the caller may drive the trees itself
// (Quiesce) or read counters their threads write. Pause brackets
// serialize against each other and against Close, and a resume never
// undoes a Close.
func (d *Driver) Pause() (resume func()) {
	d.mu.Lock()
	if d.closed {
		return d.mu.Unlock
	}
	d.stop()
	return func() {
		d.start()
		d.mu.Unlock()
	}
}

// start launches the workers. Caller holds mu (or owns d).
func (d *Driver) start() {
	d.quit = make(chan struct{})
	d.wg.Add(d.workers)
	for range d.workers {
		go d.worker(d.quit)
	}
}

// stop ends the workers and waits for them to exit. Caller holds mu.
func (d *Driver) stop() {
	close(d.quit)
	d.wg.Wait()
	d.quit = nil
}

// worker scans the trees for due sweeps until quit closes, sleeping — when
// a full scan finds nothing — until the earliest sweep deadline.
func (d *Driver) worker(quit <-chan struct{}) {
	defer d.wg.Done()
	for {
		for d.scan(quit) {
		}
		if !rest(quit, d.nextWait()) {
			return
		}
	}
}

// scan makes one fairness round over all trees, sweeping every claimable
// tree whose sweep is due and resting after each sweep that found work
// (maintRest). It reports whether any sweep found work (the caller keeps
// scanning while true; false also when quit closed during a rest). The
// rotating start offset keeps one hot tree from shadowing the others. It
// stays in uint64: as an int the counter would go negative once it
// outgrew one (after 2³¹ scans on a 32-bit build).
func (d *Driver) scan(quit <-chan struct{}) bool {
	n := uint64(len(d.trees))
	start := d.rr.Add(1) % n
	busy := false
	for i := range n {
		dt := d.trees[(start+i)%n]
		if time.Now().UnixNano() < dt.nextSweep.Load() || !dt.claim.CompareAndSwap(false, true) {
			continue
		}
		t0 := time.Now()
		w := dt.t.RunMaintenancePass()
		took := time.Since(t0)
		d.sweeps.Add(1)
		// A productive sweep resets the gap, an idle one doubles it up to
		// the cap.
		gap := dt.gap.Load()
		if w > 0 {
			gap = int64(sweepGapMin)
			if fr := d.fr.Load(); fr != nil {
				fr.Record(obs.EvMaintSweep, took, int64(w), 0)
			}
		} else {
			gap = min(2*gap, int64(sweepGapMax))
		}
		dt.gap.Store(gap)
		dt.nextSweep.Store(time.Now().UnixNano() + gap)
		dt.claim.Store(false)
		d.busyNanos.Add(uint64(took))
		if w > 0 {
			busy = true
			if !rest(quit, maintRest*took) {
				return false // stopping: the worker sees quit next
			}
		}
	}
	return busy
}

// rest keeps a worker off the CPU for dur — the rest it owes after a
// productive sweep, or an idle wait — and reports false when quit closed
// meanwhile.
func rest(quit <-chan struct{}, dur time.Duration) bool {
	timer := time.NewTimer(dur)
	select {
	case <-quit:
		timer.Stop()
		return false
	case <-timer.C:
		return true
	}
}

// nextWait returns how long an idle worker may sleep: until the earliest
// sweep deadline over all trees, clamped to [100µs, sweepGapMax].
func (d *Driver) nextWait() time.Duration {
	earliest := int64(1<<63 - 1)
	for _, dt := range d.trees {
		earliest = min(earliest, dt.nextSweep.Load())
	}
	return min(max(time.Duration(earliest-time.Now().UnixNano()), 100*time.Microsecond), sweepGapMax)
}
