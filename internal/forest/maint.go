// Maintenance worker pool: the forest-level half of hint-driven
// maintenance. Instead of one full-sweep goroutine per shard (a core burned
// per shard, whole-tree traversals on cold shards), a small shared pool of
// workers drains the shards' hint queues with targeted repairs and runs
// each shard's fallback sweep on a capped exponential idle backoff. Workers
// serialize per shard through a claim flag, preserving the trees'
// single-maintenance-driver contract; hints arriving on any shard wake the
// pool through the trees' notify callback. A worker that found work rests
// three times as long as the work took (maintRest), so maintenance costs a
// bounded share of a core per worker however much of it is queued.
package forest

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sftree"
)

// Scheduling parameters. The batch quantum and sweep backoff bounds come
// from the tree layer (sftree.MaintHintBatch, sftree.SweepGapMin/Max) so
// the standalone tree's loop and this pool run the same schedule by
// construction.
const (
	maintBatch  = sftree.MaintHintBatch
	sweepGapMin = sftree.SweepGapMin
	sweepGapMax = sftree.SweepGapMax
	// drainGap is the base per-shard hint-drain pacing gap: hints younger
	// than it wait and coalesce, bounding the rate of structural
	// transactions the pool injects against the application's (each repair
	// is a commit that can invalidate overlapping application
	// transactions). The gap adapts per shard from there (see adaptPacing).
	drainGap = 2 * time.Millisecond
	// idleWaitMax caps a worker's idle sleep so a lost deadline estimate
	// can never park a worker for long.
	idleWaitMax = sweepGapMax
	// pacingBackoffCap bounds the adaptive hint-drain gap at this multiple
	// of drainGap (see adaptPacing).
	pacingBackoffCap = 16
	// resizeQuantum paces the pool's adaptive sizing: worker 0 reconsiders
	// the active worker count at most this often (see maybeResize).
	resizeQuantum = 10 * time.Millisecond
	// maintRest is the maintenance duty share, the same as the standalone
	// tree's loop applies (sftree's maintRest — unexported there, so it is
	// restated here; the two must agree): a worker that has just spent d
	// servicing a shard that had work stays off the CPU for maintRest·d, so
	// a worker takes at most maintDuty of a core. Only the pool's stop cuts
	// the rest short; Quiesce drives the trees directly and is exempt.
	maintRest = 3
	maintDuty = 1.0 / (1 + maintRest)
)

// poolCounters aggregates pool activity. It lives on the Forest, not the
// pool, so counts survive the pause/resume cycles of the statistics
// accessors.
type poolCounters struct {
	busyNanos   atomic.Uint64
	wakeups     atomic.Uint64
	sweeps      atomic.Uint64
	hintBatches atomic.Uint64
	grows       atomic.Uint64
	shrinks     atomic.Uint64
}

// PoolStats is a snapshot of the maintenance worker pool's activity.
type PoolStats struct {
	// Workers is the configured pool ceiling (0 when the forest runs no
	// maintenance). The pool never runs more than this many maintenance
	// goroutines regardless of the shard count.
	Workers int
	// ActiveWorkers is the number of workers currently unparked (equal to
	// Workers when the size is pinned; 0 when the pool is stopped). The
	// pool resizes itself between the configured floor and Workers from the
	// hint backlog and its own utilization (see sizePolicy).
	ActiveWorkers int
	// Grows and Shrinks count adaptive size steps taken since New.
	Grows   uint64
	Shrinks uint64
	// BusyNanos is the cumulative time workers spent draining hints and
	// sweeping; utilization over a window of length d with w workers is
	// BusyNanos / (w·d).
	BusyNanos uint64
	// Wakeups counts idle workers woken by a hint-arrival notification.
	Wakeups uint64
	// Sweeps counts full fallback sweeps executed by the pool.
	Sweeps uint64
	// HintBatches counts shard claims that consumed at least one hint.
	HintBatches uint64
	// Backlog is the instantaneous number of queued hints across shards.
	Backlog int
	// PacingNanos is the mean current hint-drain pacing gap over the
	// maintained shards, in nanoseconds: where the per-shard adaptation
	// (abort-rate-driven backoff between drainGap and pacingBackoffCap times
	// it) currently sits.
	PacingNanos uint64
}

// PoolStats returns a snapshot of the pool's activity counters. Counters
// and the configured Workers size accumulate across Stats-induced
// pause/resume cycles and survive Close — Close freezes the numbers, it
// does not zero them.
func (f *Forest) PoolStats() PoolStats {
	backlog, maintained := 0, 0
	var pacing int64
	for _, sh := range f.shards {
		if sh.mt != nil {
			backlog += sh.mt.HintBacklog()
			pacing += sh.pacing.Load()
			maintained++
		}
	}
	if maintained > 0 {
		pacing /= int64(maintained)
	}
	f.maintMu.Lock()
	active := 0
	if f.pool != nil {
		active = int(f.pool.active.Load())
	}
	f.maintMu.Unlock()
	return PoolStats{
		Workers:       f.maintWorkers,
		ActiveWorkers: active,
		Grows:         f.pc.grows.Load(),
		Shrinks:       f.pc.shrinks.Load(),
		BusyNanos:     f.pc.busyNanos.Load(),
		Wakeups:       f.pc.wakeups.Load(),
		Sweeps:        f.pc.sweeps.Load(),
		HintBatches:   f.pc.hintBatches.Load(),
		Backlog:       backlog,
		PacingNanos:   uint64(pacing),
	}
}

// MaintWorkers reports the configured pool size.
func (f *Forest) MaintWorkers() int { return f.maintWorkers }

// maintPool is one generation of the worker pool (recreated on resume).
// All hi workers are spawned up front; workers beyond the active target
// park on the grow channel, so a size step is a channel send, not a
// goroutine spawn. Worker 0 never parks — it owns the resize step.
type maintPool struct {
	f    *Forest
	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup
	rr   atomic.Uint64 // rotating scan offset for fairness

	lo, hi  int
	active  atomic.Int32 // target unparked worker count, in [lo, hi]
	running atomic.Int32 // current unparked worker count
	growc   chan struct{}
	// Resize window state, owned by worker 0 (plain fields).
	lastResize int64
	lastBusy   uint64
}

// startPool creates and starts a pool generation. Caller holds maintMu.
func (f *Forest) startPool() {
	p := &maintPool{
		f:     f,
		wake:  make(chan struct{}, f.maintWorkers),
		quit:  make(chan struct{}),
		lo:    f.maintMin,
		hi:    f.maintWorkers,
		growc: make(chan struct{}, f.maintWorkers),
	}
	p.active.Store(int32(p.lo))
	p.running.Store(int32(p.hi)) // workers beyond the target park themselves
	p.lastResize = time.Now().UnixNano()
	for _, sh := range f.shards {
		if sh.mt != nil {
			sh.mt.SetMaintNotify(p.notify)
		}
	}
	p.wg.Add(f.maintWorkers)
	for i := 0; i < f.maintWorkers; i++ {
		go p.worker(i)
	}
	f.pool = p
}

// stop terminates the pool and waits for every worker to exit; afterwards
// no goroutine drives any shard's maintenance. The trees' notify
// registrations are cleared so commit hooks stop signaling (and pinning) a
// dead pool generation; a later startPool re-registers against the new one.
func (p *maintPool) stop() {
	close(p.quit)
	p.wg.Wait()
	for _, sh := range p.f.shards {
		if sh.mt != nil {
			sh.mt.SetMaintNotify(nil)
		}
	}
}

// notify wakes up to one idle worker per pending token (the channel holds
// at most one token per worker). Non-blocking: invoked from application
// threads' commit hooks.
func (p *maintPool) notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// worker scans shards for maintenance work until the pool stops, sleeping
// — when a full scan finds nothing — until a hint notification or the
// earliest fallback-sweep deadline. Workers beyond the adaptive target park
// on the grow channel (worker 0 stays up and drives the resize step).
func (p *maintPool) worker(id int) {
	defer p.wg.Done()
	for {
		if id != 0 {
			for {
				r := p.running.Load()
				if r <= p.active.Load() {
					break
				}
				if !p.running.CompareAndSwap(r, r-1) {
					continue
				}
				select {
				case <-p.quit:
					return
				case <-p.growc:
					p.running.Add(1)
				}
			}
		} else {
			p.maybeResize()
		}
		for p.scan() {
			select {
			case <-p.quit:
				return
			default:
			}
			if id == 0 {
				p.maybeResize()
			}
		}
		d := p.nextWait()
		timer := time.NewTimer(d)
		select {
		case <-p.quit:
			timer.Stop()
			return
		case <-p.wake:
			timer.Stop()
			p.f.pc.wakeups.Add(1)
		case <-timer.C:
		}
	}
}

// maybeResize is worker 0's adaptive sizing step, at most once per
// resizeQuantum: it measures the pool's utilization over the window just
// ended (busy nanoseconds per active worker) and the instantaneous hint
// backlog, asks sizePolicy for the next size, and unparks or sheds workers
// to match. Growing is a token send to the grow channel; shrinking just
// lowers the target — surplus workers park themselves at the top of their
// loop.
func (p *maintPool) maybeResize() {
	if p.lo == p.hi {
		return // pinned size: nothing to adapt
	}
	now := time.Now().UnixNano()
	window := now - p.lastResize
	if window < int64(resizeQuantum) {
		return
	}
	busy := p.f.pc.busyNanos.Load()
	active := int(p.active.Load())
	// Utilization is measured against what the duty share lets a worker
	// use, so sizePolicy's thresholds keep meaning "over half of what
	// they may" and "near idle".
	util := float64(busy-p.lastBusy) / (float64(window) * float64(active) * maintDuty)
	p.lastResize, p.lastBusy = now, busy
	backlog := 0
	for _, sh := range p.f.shards {
		if sh.mt != nil {
			backlog += sh.mt.HintBacklog()
		}
	}
	next := sizePolicy(active, p.lo, p.hi, backlog, util)
	switch {
	case next > active:
		p.active.Store(int32(next))
		p.f.pc.grows.Add(uint64(next - active))
		for i := active; i < next; i++ {
			select {
			case p.growc <- struct{}{}:
			default:
			}
		}
	case next < active:
		p.active.Store(int32(next))
		p.f.pc.shrinks.Add(uint64(active - next))
	}
}

// sizePolicy is the pure sizing step: the next active worker count given
// the current one, the configured [lo, hi] range, the queued-hint backlog
// across shards, and the pool's utilization over the window just ended.
// Grow one worker when the backlog exceeds what the active workers drain
// per quantum AND they are actually busy (backlog with idle workers means
// pacing, not capacity, is the bottleneck — more workers would not help);
// park one when the backlog is gone and the workers are near-idle. One
// step per quantum keeps the size from oscillating on bursty hint arrival.
func sizePolicy(active, lo, hi, backlog int, util float64) int {
	switch {
	case backlog > active*maintBatch && util > 0.5 && active < hi:
		return active + 1
	case backlog == 0 && util < 0.1 && active > lo:
		return active - 1
	default:
		return active
	}
}

// scan makes one fairness round over all shards, servicing every claimable
// shard that has hint backlog or a due fallback sweep, and resting after
// each one that yielded work (maintRest). It reports whether any shard
// yielded work (the caller keeps scanning while true; false also when the
// pool stopped during a rest). The rotating start offset keeps one hot
// shard from shadowing the others.
func (p *maintPool) scan() bool {
	shards := p.f.shards
	start := int(p.rr.Add(1)) % len(shards)
	busy := false
	for i := 0; i < len(shards); i++ {
		sh := shards[(start+i)%len(shards)]
		if sh.mt == nil {
			continue
		}
		now := time.Now().UnixNano()
		backlog := sh.mt.HintBacklog() > 0 && now >= sh.nextDrain.Load()
		sweepDue := now >= sh.nextSweep.Load()
		if !backlog && !sweepDue {
			continue
		}
		if !sh.claim.CompareAndSwap(false, true) {
			continue // another worker is driving this shard right now
		}
		t0 := time.Now()
		hints, work := 0, 0
		if backlog {
			hints, work = sh.mt.DrainHints(maintBatch)
			sh.nextDrain.Store(time.Now().UnixNano() + p.adaptPacing(sh))
			if hints > 0 {
				p.f.pc.hintBatches.Add(1)
				if fr := p.f.fr.Load(); fr != nil {
					fr.Record(obs.EvMaintDrain, time.Since(t0), int64(hints), int64(work))
				}
			}
		}
		if sweepDue {
			s0 := time.Now()
			w := sh.mt.RunMaintenancePass()
			p.f.pc.sweeps.Add(1)
			if w > 0 {
				if fr := p.f.fr.Load(); fr != nil {
					fr.Record(obs.EvMaintSweep, time.Since(s0), int64(w), 0)
				}
			}
			// Adapt the fallback frequency: a productive sweep resets the
			// gap, an idle one doubles it up to the cap.
			gap := sh.sweepGap.Load()
			if w > 0 {
				gap = int64(sweepGapMin)
			} else {
				gap = min(2*gap, int64(sweepGapMax))
			}
			sh.sweepGap.Store(gap)
			sh.nextSweep.Store(time.Now().UnixNano() + gap)
			work += w
		}
		sh.claim.Store(false)
		d := time.Since(t0)
		p.f.pc.busyNanos.Add(uint64(d))
		if hints > 0 || work > 0 {
			busy = true
			if !p.rest(maintRest * d) {
				return false // stopping: the worker sees quit next
			}
		}
	}
	return busy
}

// rest keeps the worker off the CPU for d — the budget it owes after
// servicing a shard (maintRest) — and reports false when the pool stopped
// meanwhile. Hint notifications do not cut it short: they queue.
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

// adaptPacing returns the gap to apply after a drain session and updates
// the shard's adaptive pacing state. The signal is the shard's structural
// failure counters (FailedRot/FailedRemove — structural transactions that
// returned false, i.e. aborted against concurrent application traffic)
// diffed against the successes since the previous drain: a
// failure-dominated session doubles the gap (up to pacingBackoffCap times
// drainGap), so repairs wait for the contention to pass and coalesce
// harder, while a clean session halves it back toward drainGap. Caller
// holds the shard's claim, which serializes the plain last-seen fields.
func (p *maintPool) adaptPacing(sh *shard) int64 {
	sf, ok := sh.m.(interface{ Stats() sftree.Stats })
	if !ok {
		return int64(drainGap)
	}
	st := sf.Stats()
	fails := st.FailedRot + st.FailedRemove
	oks := st.Rotations + st.Removals + st.TargetedRepairs
	dFail := fails - sh.maintFails
	dOK := oks - sh.maintOKs
	sh.maintFails, sh.maintOKs = fails, oks
	cur := pacePolicy(sh.pacing.Load(), dFail, dOK)
	sh.pacing.Store(cur)
	return cur
}

// pacePolicy is the pure adaptation step: the next drain gap given the
// current one and the failed/successful structural transaction counts of
// the session just ended.
func pacePolicy(cur int64, dFail, dOK uint64) int64 {
	const base = int64(drainGap)
	switch {
	case dFail > dOK:
		// More failed than successful structural transactions since the
		// last drain: the shard is abort-hot, back off.
		return min(2*cur, pacingBackoffCap*base)
	case dFail == 0:
		// Clean session: tighten back toward the base.
		return max(cur/2, base)
	default:
		// Mixed session (some failures, not dominating): hold.
		return cur
	}
}

// nextWait returns how long an idle worker may sleep: until the earliest
// fallback-sweep deadline — or pending-backlog drain deadline — over all
// shards, clamped to (0, idleWaitMax]. A hint notification cuts the sleep
// short through the wake channel.
func (p *maintPool) nextWait() time.Duration {
	earliest := int64(1<<63 - 1)
	for _, sh := range p.f.shards {
		if sh.mt == nil {
			continue
		}
		if ns := sh.nextSweep.Load(); ns < earliest {
			earliest = ns
		}
		if sh.mt.HintBacklog() > 0 {
			// Paced-out backlog: wake for it when its drain gap expires.
			if nd := sh.nextDrain.Load(); nd < earliest {
				earliest = nd
			}
		}
	}
	d := time.Duration(earliest - time.Now().UnixNano())
	if d < 100*time.Microsecond {
		d = 100 * time.Microsecond
	}
	return min(d, idleWaitMax)
}
