package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket i counts values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts zeros. The
// upper bound of bucket i is 2^i - 1.
const histBuckets = 65

// Histogram is a lock-free log2-bucketed histogram. Record is three
// uncontended atomic adds (bucket, count, sum) and never allocates; the
// exponential buckets give ~2x relative error, which is what latency and
// size distributions need (p50 vs p99 separation, not exact quantiles).
// The count/sum pair lives on its own padded line so concurrent recorders
// into different buckets do not collide on them.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64
	_     [48]byte
	b     [histBuckets]atomic.Uint64
}

// Record adds one observation of v.
func (h *Histogram) Record(v uint64) {
	h.b[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram. Concurrent
// recording makes the copy only bucket-wise consistent, which is the
// standard contract for lock-free histograms.
type HistSnapshot struct {
	Count   uint64              `json:"count"`
	Sum     uint64              `json:"sum"`
	Buckets [histBuckets]uint64 `json:"buckets"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	// Buckets first, then count/sum: a racing Record bumps its bucket
	// before count, so the copied count can only undercount the copied
	// buckets, never claim observations the buckets don't show.
	for i := range h.b {
		s.Buckets[i] = h.b[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// BucketUpper returns the inclusive upper bound of bucket i (2^i - 1;
// MaxUint64 for the last bucket).
func BucketUpper(i int) uint64 {
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 <= q <= 1) of the snapshot, or 0 for an empty histogram.
func (s HistSnapshot) Quantile(q float64) uint64 {
	total := uint64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	cum := uint64(0)
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(histBuckets - 1)
}

// Sub returns the histogram delta s - prev (bucket-wise saturating).
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	d := HistSnapshot{Count: satSub(s.Count, prev.Count), Sum: satSub(s.Sum, prev.Sum)}
	for i := range s.Buckets {
		d.Buckets[i] = satSub(s.Buckets[i], prev.Buckets[i])
	}
	return d
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}
