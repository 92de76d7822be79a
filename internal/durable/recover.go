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
	// Bytes is the total WAL bytes scanned; Elapsed the wall time the whole
	// recovery took.
	Bytes   int64
	Elapsed time.Duration
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

// recoverDir reconstructs the durable state of dir in one serial pass:
// the newest provably-complete checkpoint's pairs are put straight into the
// state map, then the surviving WAL tail is decoded segment by segment,
// sorted by position and replayed over it — every op whose record lies
// above the checkpoint's cut, in position order. It also reports the
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
func recoverDir(dir string) (*Recovery, uint64, uint64, error) {
	start := time.Now()
	rec := &Recovery{}

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

	var meta checkpointMeta
	var base []kvPair
	found := false
	for pass := 0; pass < 2 && !found; pass++ {
		for _, g := range ckpts {
			m, pairs, err := readCheckpoint(checkpointName(dir, g))
			if errors.Is(err, errOldFormat) {
				return nil, 0, 0, err
			}
			if err != nil || (pass == 0 && !contiguous(m.baseSeg)) {
				continue
			}
			meta, base, found = m, pairs, true
			break
		}
	}
	rec.CheckpointGen = meta.gen
	rec.CheckpointPairs = len(base)

	// Decode the surviving segments in order. Nothing after the first torn
	// record is trusted: the rest of its segment is dropped and the
	// segments past it are not even read.
	var recs []record
	for _, si := range segs {
		if si < meta.baseSeg {
			continue
		}
		name := segmentName(dir, si)
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, 0, 0, err
		}
		if bytes.HasPrefix(b, []byte(segMagicV1)) {
			return nil, 0, 0, fmt.Errorf("durable: %s: %w", name, errOldFormat)
		}
		rec.Segments++
		rec.Bytes += int64(len(b))
		off := len(segMagic)
		torn := !bytes.HasPrefix(b, []byte(segMagic))
		if torn {
			off = 0 // the header never reached disk: an empty tail
		}
		for !torn && off < len(b) {
			rc, n, err := readRecord(b[off:])
			if err != nil {
				torn = true
				break
			}
			recs = append(recs, rc)
			off += n
		}
		rec.TailDroppedBytes += len(b) - off
		if torn {
			break
		}
	}
	rec.Records = len(recs)

	// Restore commit order (append order can differ from commit order
	// under concurrency). Clock positions may be shared by concurrent
	// commits (the STM's slow-path committers adopt a position without a
	// clock RMW of their own), but position-sharing commits held all their
	// write locks simultaneously, so their key sets are disjoint and the
	// stable sort's arbitrary tie order is irrelevant.
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].pos < recs[j].pos })

	// The checkpoint's pairs, then every record op above its cut (see
	// Source for why skipping the rest loses nothing).
	rec.State = make(map[uint64]uint64, len(base))
	for _, kv := range base {
		rec.State[kv.k] = kv.v
	}
	for _, rc := range recs {
		if rc.pos <= meta.cut {
			rec.OpsSkipped += len(rc.ops)
			continue
		}
		for _, op := range rc.ops {
			if op.Del {
				delete(rec.State, op.Key)
			} else {
				rec.State[op.Key] = op.Val
			}
		}
		rec.OpsApplied += len(rc.ops)
	}
	rec.Elapsed = time.Since(start)
	return rec, maxSeg, maxGen, nil
}
