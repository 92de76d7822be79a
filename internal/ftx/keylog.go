package ftx

import "repro/internal/stm"

// keyState is the attempt's entry for one key it touched: the key's state
// as the transaction observes it — val when present, absent otherwise —
// and shard, the shard owning key. word is the tree word holding the
// key's value when the attempt read it present (nil when the key was read
// absent or never read), so a write of the key goes to that word with no
// second lookup. written marks a Put or Delete: the entry's state is then
// the key's final one, applied at commit.
type keyState struct {
	key     uint64
	val     uint64
	word    *stm.Word
	shard   int32
	present bool
	written bool
}

// inPlace reports whether e's write goes to the value word its read found.
func (e *keyState) inPlace() bool { return e.written && e.present && e.word != nil }

// A keyLog is a transaction's per-key log of reads and writes: at most one
// keyState per key, found by key. Lookups scan the log while it holds at
// most logScanMax entries — a transfer-sized transaction never gets
// further — and go through a map from key to position above that, so a
// transaction of thousands of keys stays linear in its size. The slice and
// the map are kept across transactions: a warmed-up log allocates nothing.
type keyLog struct {
	recs    []keyState
	pos     map[uint64]int32 // key → index in recs, while indexed
	indexed bool
	written int // entries with written set
}

// logScanMax is the log size at or below which find scans.
const logScanMax = 8

// reset empties the log for the next transaction, keeping its capacity.
func (l *keyLog) reset() {
	l.recs = l.recs[:0]
	l.written = 0
	l.dropIndex()
}

func (l *keyLog) dropIndex() {
	if l.indexed {
		clear(l.pos)
		l.indexed = false
	}
}

// find returns k's entry, or nil. The pointer is good until the next add.
func (l *keyLog) find(k uint64) *keyState {
	if l.indexed {
		if i, ok := l.pos[k]; ok {
			return &l.recs[i]
		}
		return nil
	}
	for i := range l.recs {
		if l.recs[i].key == k {
			return &l.recs[i]
		}
	}
	return nil
}

// add appends the entry of a key the log does not hold yet and returns it,
// good until the next add.
func (l *keyLog) add(s keyState) *keyState {
	l.recs = append(l.recs, s)
	n := len(l.recs)
	switch {
	case n <= logScanMax:
	case l.indexed:
		l.pos[s.key] = int32(n - 1)
	default:
		if l.pos == nil {
			l.pos = make(map[uint64]int32)
		}
		for i := range l.recs {
			l.pos[l.recs[i].key] = int32(i)
		}
		l.indexed = true
	}
	return &l.recs[n-1]
}

// write sets e, an entry of l, to the key's final state: val when present,
// deleted otherwise.
func (l *keyLog) write(e *keyState, val uint64, present bool) {
	if !e.written {
		e.written = true
		l.written++
	}
	e.val, e.present = val, present
}
