// Package ring provides a bounded lock-free multi-producer multi-consumer
// queue (Vyukov's bounded MPMC ring), generic over the element type. Its
// only user is the benchmark's layer ladder, whose ring.push_pop_ns row
// prices it; ROADMAP's "Benchmark v2" item deletes the package together
// with that row.
//
// Each slot carries a sequence word. A producer claims a slot by CAS on the
// enqueue counter and publishes the element by advancing the slot's
// sequence; a consumer symmetrically claims via the dequeue counter and
// recycles the slot for the ring's next lap. Push fails (returns false)
// when the ring is full and Pop when it is empty — the ring never blocks
// and never allocates after New.
package ring

import "sync/atomic"

// cell is one slot of the ring: the element and the sequence word that
// states which lap of the ring the slot currently belongs to.
type cell[T any] struct {
	seq atomic.Uint64
	v   T
}

// Ring is a bounded MPMC queue. The zero value is not usable; create with
// New. Push/Pop/Size are safe from any number of goroutines.
type Ring[T any] struct {
	mask uint64
	enq  atomic.Uint64
	deq  atomic.Uint64
	buf  []cell[T]
}

// New creates a ring with the given capacity rounded up to a power of two
// (minimum 1).
func New[T any](capacity int) *Ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &Ring[T]{mask: uint64(n - 1), buf: make([]cell[T], n)}
	for i := range q.buf {
		q.buf[i].seq.Store(uint64(i))
	}
	return q
}

// Cap reports the ring's capacity (the rounded power of two).
func (q *Ring[T]) Cap() int { return len(q.buf) }

// Push enqueues v, returning false when the ring is full.
func (q *Ring[T]) Push(v T) bool {
	pos := q.enq.Load()
	for {
		cell := &q.buf[pos&q.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if q.enq.CompareAndSwap(pos, pos+1) {
				cell.v = v
				cell.seq.Store(pos + 1)
				return true
			}
			pos = q.enq.Load()
		case seq < pos:
			return false // full: the consumer has not freed this slot yet
		default:
			pos = q.enq.Load()
		}
	}
}

// Pop dequeues one element, returning ok=false when the ring is empty.
func (q *Ring[T]) Pop() (T, bool) {
	pos := q.deq.Load()
	for {
		cell := &q.buf[pos&q.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos+1:
			if q.deq.CompareAndSwap(pos, pos+1) {
				v := cell.v
				cell.seq.Store(pos + q.mask + 1)
				return v, true
			}
			pos = q.deq.Load()
		case seq < pos+1:
			var zero T
			return zero, false
		default:
			pos = q.deq.Load()
		}
	}
}

// Size estimates the number of queued elements (exact when quiescent).
func (q *Ring[T]) Size() int {
	e, d := q.enq.Load(), q.deq.Load()
	if e <= d {
		return 0
	}
	return int(e - d)
}
