package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzCheckpointDecode holds the checkpoint codec to the same contract as
// the WAL record codec: decoding arbitrary bytes never panics, and anything
// that decodes re-encodes byte-identically (the format is canonical, so a
// checkpoint file that decodes is exactly the one its contents would
// write). A file of the old format never decodes. Each input is also
// decoded resealed — its trailing CRC recomputed — so mutations reach the
// parser behind the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(encodeCheckpoint(7, 12, 9, []kvPair{{k: 1, v: 10}, {k: 4, v: 0}, {k: 8, v: 80}}))
	f.Add(encodeCheckpoint(1, 1, 0, nil))
	f.Add(unhex(f, goldenCheckpoint))
	f.Add([]byte(ckptMagic))
	f.Add(unhex(f, v1Checkpoint))
	roundTrip := func(t *testing.T, b []byte) {
		meta, pairs, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if bytes.HasPrefix(b, []byte(ckptMagicV1)) {
			t.Fatalf("old-format checkpoint decoded as %+v", meta)
		}
		if re := encodeCheckpoint(meta.gen, meta.baseSeg, meta.cut, pairs); !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		roundTrip(t, b)
		if len(b) >= 4 {
			sealed := bytes.Clone(b)
			body := sealed[:len(sealed)-4]
			binary.LittleEndian.PutUint32(sealed[len(body):], crc32.Checksum(body, crcTable))
			roundTrip(t, sealed)
		}
	})
}
