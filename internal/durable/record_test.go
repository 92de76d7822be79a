package durable

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
)

// frameRecord builds one framed record.
func frameRecord(pos uint64, ops []Op) []byte {
	return frame(nil, encodeRecord(nil, pos, ops))
}

// The on-disk format pinned byte for byte (little-endian fields, spaced
// for reading), plus one record and one checkpoint of the old format,
// which must be refused, never decoded.
const (
	// Commit position 42: put 1→10, delete 2.
	goldenRecord = "2e000000 6243e780" + // payload length 46, CRC-32C
		" 2a00000000000000 02000000" + // pos, nops
		" 00 0100000000000000 0a00000000000000" + // put 1 → 10
		" 01 0200000000000000 0000000000000000" // delete 2
	// Generation 3, base segment 5, cut 42: 1→10, 2→20.
	goldenCheckpoint = "5346434b50543032" + // "SFCKPT02"
		" 0300000000000000 0500000000000000 2a00000000000000" + // gen, baseSeg, cut
		" 0200000000000000" + // npairs
		" 0100000000000000 0a00000000000000 0200000000000000 1400000000000000" +
		" 5c9b7982" // CRC-32C
	// The old update record: tag 1, shard 3, seq 42, put 1→10.
	v1Record = "22000000cab274bd 01 03000000 2a00000000000000 01000000" +
		" 00 0100000000000000 0a00000000000000"
	// The old checkpoint: "SFCKPT01", 1 shard, gen 3, baseSeg 5, cut 42, 1→10.
	v1Checkpoint = "5346434b50543031 01000000 0300000000000000 0500000000000000" +
		" 2a00000000000000 0100000000000000 0100000000000000 0a00000000000000 e957ef7f"
)

// unhex decodes one of the spaced hex constants above.
func unhex(tb testing.TB, s string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(string(bytes.ReplaceAll([]byte(s), []byte(" "), nil)))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestOnDiskFormatGolden pins the record and checkpoint layouts: each
// encodes to its golden bytes and the golden bytes decode back. The old
// format's record and checkpoint are rejected.
func TestOnDiskFormatGolden(t *testing.T) {
	ops := []Op{{Key: 1, Val: 10}, {Key: 2, Del: true}}
	want := unhex(t, goldenRecord)
	if got := frameRecord(42, ops); !bytes.Equal(got, want) {
		t.Fatalf("record encodes to\n %x\nwant\n %x", got, want)
	}
	r, n, err := readRecord(want)
	if err != nil || n != len(want) || !reflect.DeepEqual(r, record{pos: 42, ops: ops}) {
		t.Fatalf("golden record decodes to %+v (%d of %d bytes, %v)", r, n, len(want), err)
	}

	pairs := []kvPair{{k: 1, v: 10}, {k: 2, v: 20}}
	want = unhex(t, goldenCheckpoint)
	if got := encodeCheckpoint(3, 5, 42, pairs); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint encodes to\n %x\nwant\n %x", got, want)
	}
	meta, got, err := decodeCheckpoint(want)
	if err != nil || meta != (checkpointMeta{gen: 3, baseSeg: 5, cut: 42}) || !reflect.DeepEqual(got, pairs) {
		t.Fatalf("golden checkpoint decodes to %+v %v (%v)", meta, got, err)
	}

	if r, _, err := readRecord(unhex(t, v1Record)); err == nil {
		t.Fatalf("old-format record decoded as %+v", r)
	}
	if _, _, err := decodeCheckpoint(unhex(t, v1Checkpoint)); !errors.Is(err, errOldFormat) {
		t.Fatalf("old-format checkpoint: %v, want errOldFormat", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	ops := []Op{{Key: 1, Val: 10}, {Key: 2, Del: true}, {Key: ^uint64(0) - 1, Val: 7}}
	b := frameRecord(42, ops)
	r, n, err := readRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d of %d bytes", n, len(b))
	}
	if want := (record{pos: 42, ops: ops}); !reflect.DeepEqual(r, want) {
		t.Fatalf("decoded %+v, want %+v", r, want)
	}
}

// TestRecordBackToBack: two framed records decode in sequence, consuming
// exactly their own bytes.
func TestRecordBackToBack(t *testing.T) {
	b := append(frameRecord(1, []Op{{Key: 1, Val: 1}}),
		frameRecord(2, []Op{{Key: 2, Del: true}})...)
	r1, n1, err := readRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	r2, n2, err := readRecord(b[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(b) {
		t.Fatalf("consumed %d+%d of %d", n1, n2, len(b))
	}
	if r1.pos != 1 || r2.pos != 2 {
		t.Fatalf("positions %d,%d", r1.pos, r2.pos)
	}
}

// TestRecordRejectsEveryTruncation: every strict prefix of a framed record
// must fail to decode (that is the torn-tail detection recovery relies on).
func TestRecordRejectsEveryTruncation(t *testing.T) {
	b := frameRecord(9, []Op{{Key: 4, Val: 44}, {Key: 5, Del: true}})
	for cut := 0; cut < len(b); cut++ {
		if _, _, err := readRecord(b[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", cut, len(b))
		}
	}
}

// TestRecordRejectsEveryByteFlip: flipping any single byte of a framed
// record must be rejected (CRC-32C catches all single-byte corruption; the
// header fields are covered by the length/CRC cross-checks).
func TestRecordRejectsEveryByteFlip(t *testing.T) {
	orig := frameRecord(77, []Op{{Key: 10, Val: 100}, {Key: 11, Del: true}})
	for i := range orig {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := bytes.Clone(orig)
			mut[i] ^= flip
			if _, _, err := readRecord(mut); err == nil {
				t.Fatalf("byte %d flipped with %#x decoded successfully", i, flip)
			}
		}
	}
}

// FuzzRecordDecode fuzzes the codec: arbitrary bytes must never panic, any
// input that decodes must re-encode to a byte-identical record, and the
// old format's record must not decode.
func FuzzRecordDecode(f *testing.F) {
	f.Add(frameRecord(1, []Op{{Key: 1, Val: 2}}))
	f.Add(frameRecord(1<<40, []Op{{Key: 3, Del: true}, {Key: 4, Val: 5}}))
	f.Add(unhex(f, goldenRecord))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	v1 := unhex(f, v1Record)
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := readRecord(data)
		if err != nil {
			return
		}
		if bytes.Equal(data, v1) {
			t.Fatalf("old-format record decoded as %+v", r)
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Round-trip: re-encoding the decoded record must reproduce the
		// exact framed bytes (the codec has one canonical encoding).
		if re := frameRecord(r.pos, r.ops); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data[:n])
		}
	})
}
