package durable

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRecoveryCounters pins every counter of a Recovery over a directory
// crafted by hand: a checkpoint at cut 50 over 100 pairs, two tail
// segments holding records on both sides of the cut in an order other than
// their positions (as late appenders leave them), and a torn final record.
// The obs flight event and the benchmark's recovery timing read these
// counters, so each is asserted exactly, at more than one shard count.
func TestRecoveryCounters(t *testing.T) {
	const cut, pairs = 50, 100
	dir := t.TempDir()
	l, _, err := Open(dir, 1, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	src := newMapSource()
	for k := uint64(0); k < pairs; k++ {
		src.state[k] = 10*k + 1
	}
	src.pos = cut
	if err := l.Checkpoint(src); err != nil {
		t.Fatal(err)
	}
	// Segment 2, the one the checkpoint rotated to.
	l.Append(40, []Op{{Key: 5, Val: 999}}, 0)             // late, below the cut: skipped
	l.Append(cut, []Op{{Key: 6, Del: true}, {Key: 7}}, 0) // at the cut: skipped
	l.Append(51, []Op{{Key: 200, Val: 2001}, {Key: 3, Del: true}}, 0)
	l.Append(60, []Op{{Key: 9, Val: 60}}, 0)
	l.Append(55, []Op{{Key: 9, Val: 55}}, 0) // appended after 60, replayed before it
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Segment 3, opened by a second process that did not checkpoint.
	l, _, err = Open(dir, 1, Options{Sync: true, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	seg := l.LiveSegment()
	l.Append(70, []Op{{Key: 300, Val: 3}}, 0)
	l.Append(65, []Op{{Key: 200, Del: true}}, 0)
	size := func(name string) int64 {
		t.Helper()
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	intact := size(seg)
	l.Append(80, []Op{{Key: 400, Val: 4}}, 0) // torn below
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	torn := size(seg) - 1
	if err := os.Truncate(seg, torn); err != nil {
		t.Fatal(err)
	}
	wantBytes := size(segmentName(dir, 2)) + torn

	want := make(map[uint64]uint64, pairs+1)
	for k, v := range src.state {
		want[k] = v
	}
	delete(want, 3) // 51
	want[9] = 60    // 55, then 60
	want[300] = 3   // 70; 200 was put at 51 and deleted at 65
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 8} {
		cdir := t.TempDir()
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cdir, e.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, l := reopen(t, cdir, shards)
		l.Close()
		got := [...]int64{int64(rec.CheckpointGen), int64(rec.CheckpointPairs), int64(rec.Segments),
			int64(rec.Records), int64(rec.OpsApplied), int64(rec.OpsSkipped),
			int64(rec.TailDroppedBytes), rec.Bytes}
		exp := [...]int64{1, pairs, 2, 7, 6, 3, torn - intact, wantBytes}
		if got != exp {
			t.Errorf("shards=%d: [gen pairs segments records applied skipped dropped bytes] = %v, want %v",
				shards, got, exp)
		}
		if !reflect.DeepEqual(rec.State, want) {
			t.Errorf("shards=%d: recovered %d keys %v, want %d keys %v", shards, len(rec.State), rec.State, len(want), want)
		}
	}
}
