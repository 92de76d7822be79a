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
// write). Each input is also decoded resealed — its trailing CRC
// recomputed — so mutations reach the parser behind the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	const shards = 4
	f.Add(encodeCheckpoint(shards, 7, 12, []uint64{9, 0, 14, 3},
		[]kvPair{{k: 1, v: 10}, {k: 4, v: 0}, {k: 8, v: 80}}))
	f.Add(encodeCheckpoint(shards, 1, 1, make([]uint64, shards), nil))
	f.Add(encodeCheckpoint(1, 2, 3, []uint64{5}, []kvPair{{k: 6, v: 7}}))
	f.Add([]byte(ckptMagic))
	roundTrip := func(t *testing.T, b []byte) {
		meta, pairs, err := decodeCheckpoint(b, shards)
		if err != nil {
			return
		}
		if re := encodeCheckpoint(shards, meta.gen, meta.baseSeg, meta.cuts, pairs); !bytes.Equal(re, b) {
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
