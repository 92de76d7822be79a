// Maintenance worker pool. Instead of one sweeping goroutine per shard (a
// core burned per shard, whole-tree traversals on cold shards), a small
// fixed pool of workers runs each shard's maintenance sweep on a capped
// exponential idle backoff. Workers serialize per shard through a claim
// flag, preserving the trees' single-maintenance-driver contract. A worker
// that found work rests three times as long as the work took (maintRest),
// so maintenance costs a bounded share of a core per worker however much of
// it there is.
package forest

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sftree"
)

// Scheduling parameters. The sweep backoff bounds come from the tree layer
// (sftree.SweepGapMin/Max) so the standalone tree's loop and this pool run
// the same schedule by construction.
const (
	sweepGapMin = sftree.SweepGapMin
	sweepGapMax = sftree.SweepGapMax
	// maintRest is the maintenance duty share, the same as the standalone
	// tree's loop applies (sftree's maintRest — unexported there, so it is
	// restated here; the two must agree): a worker that has just spent d
	// sweeping a shard that had work stays off the CPU for maintRest·d, so a
	// worker takes at most 1/(1+maintRest) of a core. Only the pool's stop
	// cuts the rest short; Quiesce drives the trees directly and is exempt.
	maintRest = 3
)

// poolCounters aggregates pool activity. It lives on the Forest, not the
// pool, so counts survive the pause/resume cycles of the statistics
// accessors.
type poolCounters struct {
	busyNanos atomic.Uint64
	sweeps    atomic.Uint64
}

// PoolStats is a snapshot of the maintenance worker pool's activity.
type PoolStats struct {
	// Workers is the pool size (0 when the forest runs no maintenance).
	// The pool never runs more than this many maintenance goroutines
	// regardless of the shard count.
	Workers int
	// BusyNanos is the cumulative time workers spent sweeping; utilization
	// over a window of length d with w workers is BusyNanos / (w·d).
	BusyNanos uint64
	// Sweeps counts maintenance sweeps executed by the pool.
	Sweeps uint64

	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	Wakeups uint64
	// Deprecated: always 0 since hints were removed; benchmark/ still reads it.
	Backlog int
}

// PoolStats returns a snapshot of the pool's activity counters. Counters
// and the configured Workers size accumulate across Stats-induced
// pause/resume cycles and survive Close — Close freezes the numbers, it
// does not zero them.
func (f *Forest) PoolStats() PoolStats {
	return PoolStats{
		Workers:   f.maintWorkers,
		BusyNanos: f.pc.busyNanos.Load(),
		Sweeps:    f.pc.sweeps.Load(),
	}
}

// maintPool is one generation of the worker pool (recreated on resume).
type maintPool struct {
	f    *Forest
	quit chan struct{}
	wg   sync.WaitGroup
	rr   atomic.Uint64 // rotating scan offset for fairness
}

// startPool creates and starts a pool generation. Caller holds maintMu.
func (f *Forest) startPool() {
	p := &maintPool{f: f, quit: make(chan struct{})}
	p.wg.Add(f.maintWorkers)
	for i := 0; i < f.maintWorkers; i++ {
		go p.worker()
	}
	f.pool = p
}

// stop terminates the pool and waits for every worker to exit; afterwards
// no goroutine drives any shard's maintenance.
func (p *maintPool) stop() {
	close(p.quit)
	p.wg.Wait()
}

// worker scans shards for due sweeps until the pool stops, sleeping — when
// a full scan finds nothing — until the earliest sweep deadline.
func (p *maintPool) worker() {
	defer p.wg.Done()
	for {
		for p.scan() {
		}
		if !p.rest(p.nextWait()) {
			return
		}
	}
}

// scan makes one fairness round over all shards, sweeping every claimable
// shard whose sweep is due and resting after each sweep that found work
// (maintRest). It reports whether any sweep found work (the caller keeps
// scanning while true; false also when the pool stopped during a rest). The
// rotating start offset keeps one hot shard from shadowing the others.
func (p *maintPool) scan() bool {
	shards := p.f.shards
	start := int(p.rr.Add(1)) % len(shards)
	busy := false
	for i := 0; i < len(shards); i++ {
		sh := shards[(start+i)%len(shards)]
		if sh.mt == nil || time.Now().UnixNano() < sh.nextSweep.Load() {
			continue
		}
		if !sh.claim.CompareAndSwap(false, true) {
			continue // another worker is driving this shard right now
		}
		t0 := time.Now()
		w := sh.mt.RunMaintenancePass()
		d := time.Since(t0)
		p.f.pc.sweeps.Add(1)
		// Adapt the sweep frequency: a productive sweep resets the gap, an
		// idle one doubles it up to the cap.
		gap := sh.sweepGap.Load()
		if w > 0 {
			gap = int64(sweepGapMin)
			if fr := p.f.fr.Load(); fr != nil {
				fr.Record(obs.EvMaintSweep, d, int64(w), 0)
			}
		} else {
			gap = min(2*gap, int64(sweepGapMax))
		}
		sh.sweepGap.Store(gap)
		sh.nextSweep.Store(time.Now().UnixNano() + gap)
		sh.claim.Store(false)
		p.f.pc.busyNanos.Add(uint64(d))
		if w > 0 {
			busy = true
			if !p.rest(maintRest * d) {
				return false // stopping: the worker sees quit next
			}
		}
	}
	return busy
}

// rest keeps the worker off the CPU for d — the budget it owes after a
// productive sweep (maintRest), or an idle wait — and reports false when
// the pool stopped meanwhile.
func (p *maintPool) rest(d time.Duration) bool {
	timer := time.NewTimer(d)
	select {
	case <-p.quit:
		timer.Stop()
		return false
	case <-timer.C:
		return true
	}
}

// nextWait returns how long an idle worker may sleep: until the earliest
// sweep deadline over all shards, clamped to [100µs, sweepGapMax].
func (p *maintPool) nextWait() time.Duration {
	earliest := int64(1<<63 - 1)
	for _, sh := range p.f.shards {
		if sh.mt != nil {
			earliest = min(earliest, sh.nextSweep.Load())
		}
	}
	d := time.Duration(earliest - time.Now().UnixNano())
	return min(max(d, 100*time.Microsecond), sweepGapMax)
}
