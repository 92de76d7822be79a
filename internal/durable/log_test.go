package durable

import (
	"os"
	"reflect"
	"testing"
	"time"
)

// mapSource is a fake Source: a flat model map plus the clock position
// the test advances as it "commits" transactions.
type mapSource struct {
	state map[uint64]uint64
	pos   uint64
}

func newMapSource() *mapSource {
	return &mapSource{state: make(map[uint64]uint64)}
}

func (s *mapSource) Snapshot(fn func(k, v uint64)) uint64 {
	for k, v := range s.state {
		fn(k, v)
	}
	return s.pos
}

// apply commits ops as one transaction to the model and the log, advancing
// the clock.
func (s *mapSource) apply(l *Log, ops ...Op) {
	for _, op := range ops {
		if op.Del {
			delete(s.state, op.Key)
		} else {
			s.state[op.Key] = op.Val
		}
	}
	s.pos++
	l.Append(s.pos, ops, 0)
}

// reopen recovers dir and returns the state.
func reopen(t *testing.T, dir string, shards int) (*Recovery, *Log) {
	t.Helper()
	l, rec, err := Open(dir, shards, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return rec, l
}

func TestLogRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, 4, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.State) != 0 {
		t.Fatalf("fresh dir recovered %d keys", len(rec.State))
	}
	src := newMapSource()
	for i := uint64(0); i < 50; i++ {
		src.apply(l, Op{Key: i, Val: i * 3})
	}
	src.apply(l, Op{Key: 7, Del: true}, Op{Key: 8, Val: 88})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, l2 := reopen(t, dir, 4)
	defer l2.Close()
	if !reflect.DeepEqual(rec2.State, src.state) {
		t.Fatalf("recovered %d keys, want %d; diff somewhere", len(rec2.State), len(src.state))
	}
	if rec2.TailDroppedBytes != 0 {
		t.Fatalf("clean log dropped %d tail bytes", rec2.TailDroppedBytes)
	}
}

// TestLogCheckpointTruncates: after a checkpoint, old segments and
// checkpoints are gone, recovery loads the checkpoint plus the new tail,
// and records covered by the cut are skipped.
func TestLogCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 2, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	src := newMapSource()
	for i := uint64(0); i < 20; i++ {
		src.apply(l, Op{Key: i, Val: i})
	}
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in the rotated-to segment.
	src.apply(l, Op{Key: 100, Val: 1}, Op{Key: 3, Del: true})
	l.Close()

	ents, _ := os.ReadDir(dir)
	segs, ckpts := 0, 0
	for _, e := range ents {
		if _, ok := parseIndexed(e.Name(), "wal-", ".log"); ok {
			segs++
		}
		if _, ok := parseIndexed(e.Name(), "checkpoint-", ".ckpt"); ok {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Fatalf("%d checkpoints on disk, want 1", ckpts)
	}
	if segs != 1 {
		// Only the rotated-to segment; pre-checkpoint segments must be gone.
		t.Fatalf("%d segments on disk, want 1", segs)
	}

	rec, l2 := reopen(t, dir, 2)
	defer l2.Close()
	if !reflect.DeepEqual(rec.State, src.state) {
		t.Fatalf("recovered state mismatch: %d keys, want %d", len(rec.State), len(src.state))
	}
	if rec.CheckpointGen == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
}

// TestLogSealedButNotTruncated reproduces a kill between checkpoint seal
// and log truncation: the sealed checkpoint plus ALL older segments and
// checkpoints are still on disk, and recovery must pick the newest seal
// and ignore the stale files.
func TestLogSealedButNotTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 2, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	src := newMapSource()
	for i := uint64(0); i < 10; i++ {
		src.apply(l, Op{Key: i, Val: i + 1})
	}
	// First checkpoint, fully truncated (the ordinary path).
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	src.apply(l, Op{Key: 2, Del: true}, Op{Key: 50, Val: 500})
	// Second checkpoint sealed, truncation skipped: exactly the crash
	// window the recovery contract promises to survive.
	l.ckptMu.Lock()
	err = l.checkpoint(src, false)
	l.ckptMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// Post-seal traffic, then a hard stop.
	src.apply(l, Op{Key: 60, Val: 600})
	l.Close()

	ents, _ := os.ReadDir(dir)
	gens := 0
	for _, e := range ents {
		if _, ok := parseIndexed(e.Name(), "checkpoint-", ".ckpt"); ok {
			gens++
		}
	}
	if gens < 2 {
		t.Fatalf("%d checkpoints on disk, want the stale one kept (>= 2)", gens)
	}

	rec, l2 := reopen(t, dir, 2)
	defer l2.Close()
	if !reflect.DeepEqual(rec.State, src.state) {
		t.Fatalf("recovered state mismatch after seal-without-truncate: got %v want %v", rec.State, src.state)
	}
	if rec.CheckpointGen != 2 {
		t.Fatalf("recovery loaded checkpoint gen %d, want the newest seal (2)", rec.CheckpointGen)
	}
	if rec.Records != 1 {
		// Only the post-seal record is above the seal's base segment; the
		// stale pre-seal segments must not be scanned at all.
		t.Fatalf("recovery replayed %d records, want 1", rec.Records)
	}
}

// TestLogTornTailPrefix truncates the live segment at every byte offset of
// its tail and asserts recovery yields exactly the longest intact record
// prefix — the crash-consistency contract at the unit level.
func TestLogTornTailPrefix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 2, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	src := newMapSource()
	type snap struct {
		size  int64
		state map[uint64]uint64
	}
	seg := l.LiveSegment()
	stat := func() int64 {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	snaps := []snap{{size: stat(), state: map[uint64]uint64{}}}
	for i := uint64(0); i < 8; i++ {
		src.apply(l, Op{Key: i, Val: i * 7}, Op{Key: i + 100, Val: i})
		cp := make(map[uint64]uint64, len(src.state))
		for k, v := range src.state {
			cp[k] = v
		}
		snaps = append(snaps, snap{size: stat(), state: cp})
	}
	l.Close()
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	for cut := snaps[0].size; cut <= int64(len(blob)); cut++ {
		// Expected state: the newest snapshot fully contained in the cut.
		var want map[uint64]uint64
		for _, s := range snaps {
			if s.size <= cut {
				want = s.state
			}
		}
		cdir := t.TempDir()
		if err := os.WriteFile(cdir+"/"+"wal-0000000000000001.log", blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, _, _, err := recoverDir(cdir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(rec.State, want) {
			t.Fatalf("cut %d: recovered %v, want %v", cut, rec.State, want)
		}
	}
}

// TestLogIdleCheckpointNoop: with no appends since the last checkpoint, a
// checkpoint call writes nothing; a record dropped since then is not idle,
// because the next checkpoint is what re-captures its value.
func TestLogIdleCheckpointNoop(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 2, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	src := newMapSource()
	src.apply(l, Op{Key: 1, Val: 1})
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	bytesAfterFirst := l.Stats().CheckpointBytes
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.SkippedCheckpoints != 1 {
		t.Fatalf("SkippedCheckpoints = %d, want 1", st.SkippedCheckpoints)
	}
	if st.Checkpoints != 1 || st.CheckpointBytes != bytesAfterFirst {
		t.Fatalf("idle checkpoint wrote bytes (%d checkpoints, %d bytes)", st.Checkpoints, st.CheckpointBytes)
	}

	huge := make([]Op, maxPayload/17+2)
	for i := range huge {
		huge[i] = Op{Key: uint64(i), Val: 1}
	}
	l.Append(2, huge, 0)
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Dropped != 1 || st.Checkpoints != 2 || st.SkippedCheckpoints != 1 {
		t.Fatalf("after a dropped record: %d dropped, %d checkpoints, %d skipped; want 1, 2, 1",
			st.Dropped, st.Checkpoints, st.SkippedCheckpoints)
	}
}

// TestLogBackpressure: unsynced bytes are bounded — appends beyond
// MaxUnsynced fsync inline instead of growing the loss window.
func TestLogBackpressure(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{GroupCommit: time.Minute, MaxUnsynced: 64, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		l.Append(i+1, []Op{{Key: i, Val: i}}, 0)
	}
	st := l.Stats()
	if st.Stalls == 0 {
		t.Fatal("no stalls despite a 64-byte unsynced bound")
	}
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if len(rec.State) != 20 {
		t.Fatalf("recovered %d keys, want 20", len(rec.State))
	}
}

// TestLogCheckpointFailureRecovers: a checkpoint attempt that fails after
// its rotation has sealed nothing, so it must not make the next attempt
// look idle — a retry with no append in between must seal, and recovery
// must then equal the model. Both post-rotation failure points are driven:
// the checkpoint seal and the segment rotation. The injection squats a
// directory on the path the checkpoint needs to create, so OpenFile fails
// like a transient I/O error.
func TestLogCheckpointFailureRecovers(t *testing.T) {
	cases := []struct {
		name  string
		block func(l *Log) string // path whose creation the next checkpoint needs
	}{
		{"sealfail", func(l *Log) string { return checkpointName(l.dir, l.nextGen) + ".tmp" }},
		{"rotatefail", func(l *Log) string { return segmentName(l.dir, l.seg+1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, 2, Options{Sync: true, CheckpointEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			src := newMapSource()
			for i := uint64(0); i < 40; i++ {
				src.apply(l, Op{Key: i, Val: i + 1})
			}
			if err := l.Checkpoint(src); err != nil {
				t.Fatal(err)
			}
			src.apply(l, Op{Key: 3, Val: 333}, Op{Key: 6, Val: 666})

			blocked := tc.block(l)
			if err := os.Mkdir(blocked, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := l.Checkpoint(src); err == nil {
				t.Fatal("checkpoint succeeded despite the blocked path")
			}
			if err := os.Remove(blocked); err != nil {
				t.Fatal(err)
			}

			if err := l.Checkpoint(src); err != nil {
				t.Fatal(err)
			}
			if st := l.Stats(); st.Checkpoints != 2 || st.SkippedCheckpoints != 0 {
				t.Fatalf("retry after the failure: %d sealed, %d skipped; want 2, 0", st.Checkpoints, st.SkippedCheckpoints)
			}
			l.Close() // returns the injected sticky error; on-disk state is sealed

			rec, l2 := reopen(t, dir, 2)
			defer l2.Close()
			if !reflect.DeepEqual(rec.State, src.state) {
				t.Fatalf("recovered state mismatch: got %v want %v", rec.State, src.state)
			}
		})
	}
}

// TestLogDroppedOversize: an oversize record is dropped and counted, the
// error surfaces in Err, and the segment stays healthy for later records.
func TestLogDroppedOversize(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]Op, maxPayload/17+2)
	for i := range huge {
		huge[i] = Op{Key: uint64(i), Val: 1}
	}
	l.Append(1, huge, 0)
	if l.Err() == nil {
		t.Fatal("oversize record left Err nil")
	}
	if l.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", l.Stats().Dropped)
	}
	l.Append(2, []Op{{Key: 9, Val: 9}}, 0)
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if rec.State[9] != 9 || len(rec.State) != 1 {
		t.Fatalf("post-drop record lost: %v", rec.State)
	}
}

// TestLogGroupCommitFlushesOnClose: in group-commit mode nothing needs to
// be synced per append, but Close must leave every record durable.
func TestLogGroupCommitFlushesOnClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{GroupCommit: DefaultGroupCommit, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		l.Append(i+1, []Op{{Key: i, Val: i}}, 0)
	}
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if len(rec.State) != 100 {
		t.Fatalf("recovered %d keys, want 100", len(rec.State))
	}
}

// holdFsync replaces the log's fsync seam with one that reports each entry
// on entered and then blocks until release is closed.
func holdFsync(l *Log) (entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 16), make(chan struct{})
	l.ioMu.Lock()
	l.fsync = func(f *os.File) error {
		entered <- struct{}{}
		<-release
		return f.Sync()
	}
	l.ioMu.Unlock()
	return entered, release
}

// returnsWithin reports whether done is signalled n times before the deadline.
func returnsWithin(done <-chan struct{}, n int, d time.Duration) bool {
	deadline := time.After(d)
	for ; n > 0; n-- {
		select {
		case <-done:
		case <-deadline:
			return false
		}
	}
	return true
}

// TestLogAppendsDoNotWaitForFsync: under group commit an fsync in flight
// holds ioMu only, so appends from other goroutines return while it is
// stuck — until they cross MaxUnsynced, where the crossing append stalls
// (counted) behind the same fsync. Everything appended is recovered.
func TestLogAppendsDoNotWaitForFsync(t *testing.T) {
	dir := t.TempDir()
	const bound = 4 << 10
	l, _, err := Open(dir, 1, Options{GroupCommit: time.Hour, MaxUnsynced: bound, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdFsync(l)
	l.Append(1, []Op{{Key: 0, Val: 1}}, 0)
	syncDone := make(chan struct{}, 1)
	go func() { l.Sync(); syncDone <- struct{}{} }()
	<-entered // the fsync holds ioMu from here until release

	const perWriter = 20 // 2×20 records of 37 framed bytes stay far below the bound
	done := make(chan struct{}, 2)
	for w := uint64(0); w < 2; w++ {
		go func() {
			for i := uint64(0); i < perWriter; i++ {
				k := 1 + w*perWriter + i
				l.Append(1+k, []Op{{Key: k, Val: k}}, 0)
			}
			done <- struct{}{}
		}()
	}
	if !returnsWithin(done, 2, 10*time.Second) {
		t.Fatal("appends blocked behind an fsync in flight")
	}
	if st := l.Stats(); st.Records != 1+2*perWriter || st.Syncs != 0 || st.Stalls != 0 {
		t.Fatalf("during the held fsync: %d records, %d syncs, %d stalls; want %d, 0, 0", st.Records, st.Syncs, st.Stalls, 1+2*perWriter)
	}

	// Fill up to the bound: the append that crosses it must wait for the
	// disk, and say so.
	next := uint64(1 + 2*perWriter)
	go func() {
		for l.Stats().Stalls == 0 {
			l.Append(1+next, []Op{{Key: next, Val: next}}, 0)
			next++
		}
		done <- struct{}{}
	}()
	if returnsWithin(done, 1, 100*time.Millisecond) {
		t.Fatal("the append crossing MaxUnsynced returned while the fsync covering it was held")
	}
	if st := l.Stats(); st.Stalls != 1 || st.Syncs != 0 {
		t.Fatalf("at the bound: %d stalls, %d syncs; want 1, 0", st.Stalls, st.Syncs)
	}
	close(release)
	if !returnsWithin(done, 1, 10*time.Second) || !returnsWithin(syncDone, 1, 10*time.Second) {
		t.Fatal("stalled append or Sync did not return after the fsync was released")
	}
	if st := l.Stats(); st.Syncs < 2 || st.Bytes <= bound {
		t.Fatalf("after release: %d syncs (want the held one and the stall's), %d bytes (want > %d)", st.Syncs, st.Bytes, bound)
	}
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if uint64(len(rec.State)) != next {
		t.Fatalf("recovered %d keys, want %d", len(rec.State), next)
	}
}

// TestLogSyncAppendWaitsForItsFsync: with Options.Sync an append returns
// only once an fsync covering its record has returned — and appends that
// queue behind a held fsync share the next one (leader/follower): three
// records, two fsyncs.
func TestLogSyncAppendWaitsForItsFsync(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := holdFsync(l)
	done := make(chan struct{}, 3)
	appendOne := func(k uint64) {
		l.Append(k, []Op{{Key: k, Val: k}}, 0)
		done <- struct{}{}
	}
	go appendOne(1)
	<-entered // record 1's fsync is held
	go appendOne(2)
	go appendOne(3)
	for l.Stats().Records < 3 { // both framed, both queued on ioMu
		time.Sleep(time.Millisecond)
	}
	if returnsWithin(done, 1, 100*time.Millisecond) {
		t.Fatal("a Sync append returned before any fsync did")
	}
	if st := l.Stats(); st.Syncs != 0 {
		t.Fatalf("%d syncs counted while the first is held", st.Syncs)
	}
	close(release)
	if !returnsWithin(done, 3, 10*time.Second) {
		t.Fatal("Sync appends did not return after the fsync was released")
	}
	if st := l.Stats(); st.Syncs != 2 {
		t.Fatalf("%d fsyncs for one held record and two queued behind it, want 2", st.Syncs)
	}
	l.Close()
	rec, l2 := reopen(t, dir, 1)
	defer l2.Close()
	if len(rec.State) != 3 {
		t.Fatalf("recovered %d keys, want 3", len(rec.State))
	}
}
