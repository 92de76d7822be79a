package forest

import (
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/trees"
)

// kv is one element of a per-shard range snapshot.
type kv struct{ k, v uint64 }

// rangeScan is the state of one Handle.Range or Len: the transaction bodies
// that read every shard, a snapshot buffer per shard, and the cursors of
// the merge. A handle keeps one between calls, so a scan in steady state
// allocates nothing.
type rangeScan struct {
	maps   []trees.Map
	lo, hi uint64
	buf    []kv // the shard being collected; the body resets it per attempt
	n      int  // Len's count

	bufs  [][]kv // snapshot storage, indexed by shard
	snaps [][]kv // this Range's non-empty snapshots: the merge's input
	idx   []int  // merge cursors, parallel to snaps

	scanFn, countFn func(*stm.Tx)
	collectFn       func(k, v uint64) bool
	tallyFn         func(k, v uint64) bool
}

func newRangeScan(maps []trees.Map) *rangeScan {
	sc := &rangeScan{maps: maps, bufs: make([][]kv, len(maps))}
	sc.scanFn, sc.countFn = sc.scan, sc.count
	sc.collectFn, sc.tallyFn = sc.collect, sc.tally
	return sc
}

// scan collects [lo, hi] of every shard into bufs, in one transaction.
func (sc *rangeScan) scan(tx *stm.Tx) {
	for si, m := range sc.maps {
		sc.buf = sc.bufs[si][:0]
		m.RangeTx(tx, sc.lo, sc.hi, sc.collectFn)
		sc.bufs[si] = sc.buf
	}
}

func (sc *rangeScan) collect(k, v uint64) bool {
	sc.buf = append(sc.buf, kv{k, v})
	return true
}

// count counts every shard's elements into n, in one transaction.
func (sc *rangeScan) count(tx *stm.Tx) {
	sc.n = 0
	for _, m := range sc.maps {
		m.RangeTx(tx, 0, ^uint64(0), sc.tallyFn)
	}
}

func (sc *rangeScan) tally(_, _ uint64) bool {
	sc.n++
	return true
}

// keepScanBuf bounds, in elements, the per-shard snapshot storage a handle
// keeps between scans (64 KB a shard, the bound sftree's operation frames
// use): one whole-forest Keys or Ascend must not pin a copy of the forest to
// the handle that ran it.
const keepScanBuf = 1 << 12

// takeScan removes the scan state from the handle for the duration of one
// Range and putScan returns it. In between, Range feeds the caller's fn,
// which may call Range (or Len, or Keys) on this very handle: with the state
// out, the nested call builds its own instead of overwriting snapshots that
// are still being merged.
func (h *Handle) takeScan() *rangeScan {
	sc := h.scan
	h.scan = nil
	if sc == nil {
		sc = newRangeScan(h.f.maps)
	}
	return sc
}

func (h *Handle) putScan(sc *rangeScan) {
	for si, b := range sc.bufs {
		if cap(b) > keepScanBuf {
			sc.bufs[si] = nil
		}
	}
	clear(sc.snaps)
	sc.buf = nil
	h.scan = sc
}

// Range visits, in ascending key order, every element whose key lies in
// [lo, hi] (both inclusive), calling fn(k, v) for each; fn returning false
// stops the scan. It reports whether the scan ran to the end of the
// interval. Keys are shard-routed by hash, so every shard intersects every
// interval: Range collects [lo, hi] of every shard in one read-only
// transaction — one consistent snapshot of the whole forest — and then
// merges the S sorted buffers lazily, k-way, while feeding fn.
//
// The snapshot is one read-only CTL transaction whatever the domain default
// (stm.Thread.AtomicRO: a first attempt that logs no reads, a fully logged
// retry); fn runs after it has committed, so it may use the handle freely.
// Under concurrent writers a wide scan is one large read-only transaction
// that any commit into its read set restarts: bound the interval when
// writers are busy.
//
// An early fn stop saves the remaining merge work but not the snapshot
// collection, which is bounded by the interval width; callers wanting
// "first n elements" scans should bound [lo, hi] accordingly.
func (h *Handle) Range(lo, hi uint64, fn func(k, v uint64) bool) bool {
	if lo > hi {
		return true
	}
	var (
		tr *obs.Tracer
		id uint64
		t0 int64
	)
	if t := h.f.tracer.Load(); t != nil {
		tr, id, t0 = h.traceStart(t, obs.OpRange)
	}
	sc := h.takeScan()
	sc.lo, sc.hi = lo, hi
	h.th.AtomicRO(sc.scanFn)
	sc.snaps = sc.snaps[:0]
	for _, b := range sc.bufs {
		if len(b) > 0 {
			sc.snaps = append(sc.snaps, b)
		}
	}
	done := sc.merge(fn)
	h.putScan(sc)
	if tr != nil {
		h.traceEnd(tr, id, obs.OpRange, t0, boolA(done))
	}
	return done
}

// Len counts the elements, one consistent snapshot of the forest (the
// Range transaction, counting instead of collecting).
func (h *Handle) Len() int {
	sc := h.takeScan()
	h.th.AtomicRO(sc.countFn)
	n := sc.n
	h.putScan(sc)
	return n
}

// merge merges the sorted per-shard snapshots, feeding fn in globally
// ascending key order until fn stops it or the snapshots drain. Shard
// routing is a function of the key, so no key appears in two snapshots and
// the merged stream is strictly increasing. With the small shard counts a
// forest runs (a handful to a few dozen) a linear min-pick per element
// beats a heap's bookkeeping.
func (sc *rangeScan) merge(fn func(k, v uint64) bool) bool {
	snaps := sc.snaps
	idx := sc.idx[:0]
	for range snaps {
		idx = append(idx, 0)
	}
	sc.idx = idx
	for {
		best := -1
		for i := range snaps {
			if idx[i] >= len(snaps[i]) {
				continue
			}
			if best == -1 || snaps[i][idx[i]].k < snaps[best][idx[best]].k {
				best = i
			}
		}
		if best == -1 {
			return true
		}
		e := snaps[best][idx[best]]
		idx[best]++
		if !fn(e.k, e.v) {
			return false
		}
	}
}
