package ftx

import "repro/internal/durable"

// Effects is the durable record of one committed transaction: its effects
// in the order they were made, each tagged with the shard owning its key.
// The forest's handles and the coordinator collect into one during an
// attempt and log it from the transaction's OnCommitted hook. It keeps its
// buffers across transactions, so a warmed-up Effects allocates nothing.
type Effects struct {
	ops    []durable.Op
	shards []int
	// parts is the multi-shard record's argument, kept at its longest
	// (Ops slices included).
	parts []durable.ShardOps
}

// Reset empties e for the next transaction.
func (e *Effects) Reset() {
	e.ops = e.ops[:0]
	e.shards = e.shards[:0]
}

// Len reports the number of collected effects.
func (e *Effects) Len() int { return len(e.ops) }

// Add appends one effect on shard si.
func (e *Effects) Add(si int, op durable.Op) {
	e.ops = append(e.ops, op)
	e.shards = append(e.shards, si)
}

// Log appends e to l at commit position pos: one update record when every
// effect lies on one shard, otherwise one multi-shard record whose parts
// all carry pos — atomically present or absent on disk, so a torn tail
// never recovers half a transaction. Each shard's effects keep their order.
// traceID, when non-zero, stitches the record's span to the operation.
func (e *Effects) Log(l *durable.Log, pos, traceID uint64) {
	if len(e.ops) == 0 {
		return
	}
	si := e.shards[0]
	one := true
	for _, s := range e.shards[1:] {
		if s != si {
			one = false
			break
		}
	}
	if one {
		l.LogUpdateT(si, pos, e.ops, traceID)
		return
	}
	n := 0
	for i, op := range e.ops {
		p := -1
		for j := range n {
			if e.parts[j].Shard == e.shards[i] {
				p = j
				break
			}
		}
		if p < 0 {
			if n == len(e.parts) {
				e.parts = append(e.parts, durable.ShardOps{})
			}
			p = n
			n++
			e.parts[p].Shard, e.parts[p].Seq = e.shards[i], pos
			e.parts[p].Ops = e.parts[p].Ops[:0]
		}
		e.parts[p].Ops = append(e.parts[p].Ops, op)
	}
	l.LogAtomicT(e.parts[:n], traceID)
}
