package ftx

// keyState is one buffered write: the key's final state in the
// transaction — a put of val, or a deletion when present is false. shard is
// the shard owning key.
type keyState struct {
	key     uint64
	val     uint64
	present bool
	shard   int32
}

// A keyLog is a transaction's write buffer: at most one keyState per key,
// found by key. Lookups scan the log while it holds at most logScanMax
// entries — a transfer-sized transaction never gets further — and go
// through a map from key to position above that, so a transaction of
// thousands of keys stays linear in its size. The slice and the map are kept
// across transactions: a warmed-up log allocates nothing.
type keyLog struct {
	recs    []keyState
	pos     map[uint64]int32 // key → index in recs, while indexed
	indexed bool
}

// logScanMax is the log size at or below which find scans.
const logScanMax = 8

// reset empties the log for the next transaction, keeping its capacity.
func (l *keyLog) reset() {
	l.recs = l.recs[:0]
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

// add appends the entry of a key the log does not hold yet.
func (l *keyLog) add(s keyState) {
	l.recs = append(l.recs, s)
	switch n := len(l.recs); {
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
}
