package experiments

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stm"
	"repro/internal/trees"
)

// This file is the synchrobench-style integer-set micro-benchmark behind
// Table 1 and Figures 3–5 (§5.1): Threads closed-loop goroutines apply a mix
// of contains / insert / delete / move operations to one tree in one STM
// domain for a fixed duration, and the harness reports throughput in
// operations per microsecond (the paper's unit) plus the workers' summed STM
// statistics (Table 1 reads MaxOpReads).
//
// Two methodological details follow the paper explicitly:
//
//   - Effective updates. "We consider the effective update ratios of
//     synchrobench counting only modifications and ignoring the operations
//     that fail." In effective mode each thread alternates inserting a
//     fresh random key with deleting a key it previously inserted, so
//     almost every attempted update modifies the structure.
//
//   - Biased workload (Fig. 3 right). "Inserting (resp. deleting) random
//     values skewed towards high (resp. low) numbers in the value range:
//     the values ... are skewed with a fixed probability by incrementing
//     (resp. decrementing) with an integer uniformly taken within [0..9]."

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
}

// Result reports one measured cell.
type Result struct {
	Ops        uint64    // operations completed
	EffUpdates uint64    // updates that modified the abstraction
	EffMoves   uint64    // moves that relocated a value
	Throughput float64   // operations per microsecond
	STM        stm.Stats // summed over the worker threads
}

// run measures one cell: a fresh kind tree on an STM in the given mode with
// the paper's suicide contention manager, filled, maintained in the
// background, and hammered by threads workers for o.Duration.
func run(o *Opts, kind trees.Kind, mode stm.Mode, threads int, wl Workload) Result {
	if threads < 1 {
		panic("experiments: threads must be >= 1")
	}
	if wl.KeyRange < 2 {
		panic("experiments: KeyRange must be >= 2")
	}
	s := stm.New(stm.WithMode(mode), stm.WithYield(o.yieldEvery()))
	m := trees.New(kind, s)
	fill(m, s, wl.KeyRange, o.Seed)
	return measure(o, m, s, threads, wl)
}

// measure is run's measured phase on an already filled tree.
func measure(o *Opts, m trees.Map, s *stm.STM, threads int, wl Workload) Result {
	stopMaint := trees.Start(m)
	defer stopMaint()

	workers := make([]*Runner, threads)
	for i := range workers {
		workers[i] = NewRunner(m, s.NewThread(), wl, o.Seed+int64(i)*7919+1)
	}
	var stop atomic.Bool
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(len(workers))
	for _, w := range workers {
		go func() {
			defer done.Done()
			start.Wait()
			for !stop.Load() {
				w.Step()
			}
		}()
	}
	t0 := time.Now()
	start.Done()
	time.Sleep(o.Duration)
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(t0)

	var res Result
	for _, w := range workers {
		res.Ops += w.Ops
		res.EffUpdates += w.EffUpdates
		res.EffMoves += w.EffMoves
		res.STM.Add(w.th.Stats())
	}
	res.Throughput = float64(res.Ops) / (float64(elapsed.Nanoseconds()) / 1e3)
	return res
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
	for _, k := range rng.Perm(int(keyRange)) {
		if rng.Intn(2) == 0 {
			m.Insert(th, uint64(k), uint64(k))
		}
	}
	trees.Quiesce(m, 1<<20)
}

// Runner executes one thread's operation stream against a tree through one
// STM thread; run drives one per worker, and the root-level testing.B
// benchmarks drive them directly with b.N-controlled iteration. The stream
// is a pure function of the seed: Step draws nothing but the operation
// itself from the Runner's random source.
type Runner struct {
	m   trees.Map
	th  *stm.Thread
	rng *rand.Rand
	wl  Workload

	Ops        uint64 // operations completed
	EffUpdates uint64 // updates that modified the abstraction
	EffMoves   uint64 // moves that relocated a value

	// insert/delete alternation state for effective mode: keys this worker
	// inserted and has not yet deleted.
	owned    []uint64
	doInsert bool
}

// NewRunner creates a Runner hammering m through th with its own
// deterministic random stream.
func NewRunner(m trees.Map, th *stm.Thread, wl Workload, seed int64) *Runner {
	return &Runner{m: m, th: th, rng: rand.New(rand.NewSource(seed)), wl: wl}
}

// Thread exposes the runner's STM thread (for statistics collection).
func (w *Runner) Thread() *stm.Thread { return w.th }

// Step executes one operation drawn from the workload mix.
func (w *Runner) Step() {
	roll := w.rng.Intn(100)
	switch {
	case roll < w.wl.MovePercent:
		src := w.key(false)
		dst := w.key(true)
		if w.m.Move(w.th, src, dst) {
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
		w.m.Contains(w.th, w.key(w.rng.Intn(2) == 0))
	}
	w.Ops++
}

// effectiveUpdate alternates inserting a fresh key with deleting a
// previously inserted one, keeping the set size stable and the effective
// ratio close to the attempted one.
func (w *Runner) effectiveUpdate() {
	if w.doInsert || len(w.owned) == 0 {
		k := w.key(true)
		if w.m.Insert(w.th, k, k) {
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
	if w.m.Delete(w.th, k) {
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
		if w.m.Insert(w.th, k, k) {
			w.EffUpdates++
		}
	} else if w.m.Delete(w.th, k) {
		w.EffUpdates++
	}
}

// key draws a uniform key; under bias, keys for inserts (forInsert=true)
// are skewed high and keys for deletes/lookups low, by ±U[0..9] as in the
// paper.
func (w *Runner) key(forInsert bool) uint64 {
	k := uint64(w.rng.Int63n(int64(w.wl.KeyRange)))
	if !w.wl.Biased {
		return k
	}
	d := uint64(w.rng.Intn(10))
	if forInsert {
		return min(k+d, w.wl.KeyRange-1)
	}
	if k < d {
		return 0
	}
	return k - d
}
