package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Recovery reports what Open reconstructed from the directory.
type Recovery struct {
	// State is the recovered key/value map: the newest provably-complete
	// checkpoint with the surviving WAL tail replayed over it.
	State map[uint64]uint64
	// CheckpointGen is the generation of the checkpoint loaded (0 when the
	// directory held none); CheckpointPairs counts the pairs it contributed.
	CheckpointGen   uint64
	CheckpointPairs int
	// Segments counts WAL segments scanned; Records the intact records
	// replayed from them.
	Segments int
	Records  int
	// OpsApplied and OpsSkipped split the replayed ops into those applied
	// and those the checkpoint already covered (a record's ops are skipped
	// when its position is at or below the checkpoint's cut).
	OpsApplied int
	OpsSkipped int
	// TailDroppedBytes counts bytes discarded at the first torn or
	// corrupted record (everything from it on is dropped).
	TailDroppedBytes int
	// Bytes is the total WAL bytes scanned; Appliers the parallel applier
	// partitions the replay ran across; Elapsed the wall time the whole
	// recovery took.
	Bytes    int64
	Appliers int
	Elapsed  time.Duration
}

// parseIndexed extracts the numeric index from names like wal-%016d.log.
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	i, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return i, true
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection used to
// spread keys over the recovery applier partitions. Partitioning is by key
// (recovery knows nothing of the store's shard routing), which is sound
// because replay ordering only matters per key: each partition applies its
// ops in global position order.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// loaded is one checkpoint loaded for replay, its pairs bucketed by key
// partition for the appliers.
type loaded struct {
	checkpointMeta
	base  [][]kvPair // pairs, bucketed by key partition
	pairs int
}

// recoverDir reconstructs the durable state of dir: the newest
// provably-complete checkpoint plus an idempotent, partitioned replay of the
// surviving WAL tail across `appliers` goroutines. It also reports the
// highest segment and generation indices seen, so the caller opens fresh
// ones beyond them, and removes stale temporary files.
//
// Checkpoints are tried newest first. One is provably complete when it
// decodes and the segment suffix at or above its base has no gaps; when
// none is, the same order is retried tolerating segment gaps (external
// damage — recovery degrades gracefully instead of failing), and with no
// usable checkpoint at all the state starts empty. Files of the old
// on-disk format are refused, naming the file, rather than read as damage:
// a segment or checkpoint recovery reads with an old magic, and any
// delta-*.ckpt (that format's incremental checkpoints). A stray
// manifest-*.mf is ignored.
func recoverDir(dir string, appliers int) (*Recovery, uint64, uint64, error) {
	start := time.Now()
	rec := &Recovery{State: make(map[uint64]uint64)}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	var segs, ckpts []uint64
	var maxSeg, maxGen uint64
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // interrupted seal
			continue
		}
		if i, ok := parseIndexed(name, "wal-", ".log"); ok {
			segs = append(segs, i)
			maxSeg = max(maxSeg, i)
		}
		if g, ok := parseIndexed(name, "checkpoint-", ".ckpt"); ok {
			ckpts = append(ckpts, g)
			maxGen = max(maxGen, g)
		}
		if _, ok := parseIndexed(name, "delta-", ".ckpt"); ok {
			return nil, 0, 0, fmt.Errorf("durable: %s: %w", filepath.Join(dir, name), errOldFormat)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })

	if appliers < 1 {
		appliers = 1
	}
	W := appliers
	rec.Appliers = W

	// contiguous reports whether the segment suffix at or above base has
	// no gaps up to the highest segment present.
	contiguous := func(base uint64) bool {
		next := base
		for _, s := range segs {
			if s < base {
				continue
			}
			if s != next {
				return false
			}
			next++
		}
		return true
	}

	var cp *loaded
	for pass := 0; pass < 2 && cp == nil; pass++ {
		for _, g := range ckpts {
			c, err := loadCheckpoint(checkpointName(dir, g), W)
			if errors.Is(err, errOldFormat) {
				return nil, 0, 0, err
			}
			if err != nil || (pass == 0 && !contiguous(c.baseSeg)) {
				continue
			}
			cp = c
			break
		}
	}
	if cp == nil {
		cp = &loaded{base: make([][]kvPair, W)}
	}
	rec.CheckpointGen = cp.gen
	rec.CheckpointPairs = cp.pairs

	// Decode the surviving segments — in parallel, since each segment's
	// CRC checks and record parsing are independent — then resolve the
	// prefix discipline serially in segment order: nothing after the first
	// torn record is trusted, and segments past a torn one contribute
	// nothing (they are not even counted, matching the serial semantics).
	type segResult struct {
		recs    []record
		records int
		bytes   int
		dropped int
		torn    bool
		err     error
	}
	var replaySegs []uint64
	for _, si := range segs {
		if si >= cp.baseSeg {
			replaySegs = append(replaySegs, si)
		}
	}
	results := make([]segResult, len(replaySegs))
	decodeSeg := func(i int) {
		r := &results[i]
		name := segmentName(dir, replaySegs[i])
		b, err := os.ReadFile(name)
		if err != nil {
			r.err = err
			return
		}
		r.bytes = len(b)
		if bytes.HasPrefix(b, []byte(segMagicV1)) {
			r.err = fmt.Errorf("durable: %s: %w", name, errOldFormat)
			return
		}
		if !bytes.HasPrefix(b, []byte(segMagic)) {
			// Segment created but its header never reached disk: an empty
			// tail, nothing to replay.
			r.dropped = len(b)
			r.torn = true
			return
		}
		off := len(segMagic)
		for off < len(b) {
			rc, n, err := readRecord(b[off:])
			if err != nil {
				r.dropped = len(b) - off
				r.torn = true
				break
			}
			r.records++
			r.recs = append(r.recs, rc)
			off += n
		}
	}
	if W > 1 && len(replaySegs) > 1 {
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < min(W, len(replaySegs)); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					decodeSeg(i)
				}
			}()
		}
		for i := range replaySegs {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range replaySegs {
			decodeSeg(i)
		}
	}
	var recs []record
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return nil, 0, 0, r.err
		}
		rec.Segments++
		rec.Bytes += int64(r.bytes)
		rec.Records += r.records
		rec.TailDroppedBytes += r.dropped
		recs = append(recs, r.recs...)
		if r.torn {
			break
		}
	}

	// Restore commit order (append order can differ from commit order
	// under concurrency). Clock positions may be shared by concurrent
	// commits (the STM's slow-path committers adopt a position without a
	// clock RMW of their own), but position-sharing commits held all their
	// write locks simultaneously, so their key sets are disjoint and the
	// stable sort's arbitrary tie order is irrelevant.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].pos < recs[j].pos })

	// Bucket the ops by key partition (order within a bucket preserves the
	// global sort), then run one applier per partition: checkpoint pairs,
	// then the record ops — skipping an op when its record's position is at
	// or below the checkpoint's cut (see Source for why that loses nothing).
	type replayOp struct {
		key, val, pos uint64
		del           bool
	}
	opBuckets := make([][]replayOp, W)
	for _, rc := range recs {
		for _, op := range rc.ops {
			w := 0
			if W > 1 {
				w = int(mix64(op.Key) % uint64(W))
			}
			opBuckets[w] = append(opBuckets[w], replayOp{key: op.Key, val: op.Val, pos: rc.pos, del: op.Del})
		}
	}
	type partResult struct {
		state            map[uint64]uint64
		applied, skipped int
	}
	parts := make([]partResult, W)
	apply := func(w int) {
		p := &parts[w]
		p.state = make(map[uint64]uint64, len(cp.base[w])+len(opBuckets[w])/2)
		for _, kv := range cp.base[w] {
			p.state[kv.k] = kv.v
		}
		for _, op := range opBuckets[w] {
			if op.pos <= cp.cut {
				p.skipped++
				continue
			}
			if op.del {
				delete(p.state, op.key)
			} else {
				p.state[op.key] = op.val
			}
			p.applied++
		}
	}
	if W > 1 {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				apply(w)
			}(w)
		}
		wg.Wait() // merge barrier: every partition (and so every record,
		// its ops spread across partitions by key) is fully applied
		// before the states merge
	} else {
		apply(0)
	}
	total := 0
	for w := range parts {
		total += len(parts[w].state)
	}
	rec.State = make(map[uint64]uint64, total)
	for w := range parts {
		for k, v := range parts[w].state {
			rec.State[k] = v
		}
		rec.OpsApplied += parts[w].applied
		rec.OpsSkipped += parts[w].skipped
	}
	rec.Elapsed = time.Since(start)
	return rec, maxSeg, maxGen, nil
}

// loadCheckpoint loads one checkpoint, bucketing its pairs by key
// partition for the W appliers.
func loadCheckpoint(path string, W int) (*loaded, error) {
	meta, pairs, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	c := &loaded{checkpointMeta: meta, base: make([][]kvPair, W), pairs: len(pairs)}
	for _, p := range pairs {
		w := 0
		if W > 1 {
			w = int(mix64(p.k) % uint64(W))
		}
		c.base[w] = append(c.base[w], p)
	}
	return c, nil
}
