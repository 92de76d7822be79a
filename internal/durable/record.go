package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// This file defines the WAL record codec. Every record is framed as
//
//	u32 payload length | u32 CRC-32C of the payload | payload
//
// (little-endian throughout), so a reader can walk a segment record by
// record and detect a torn or truncated tail — a short header, a short
// payload, an implausible length, or a checksum mismatch — and cleanly
// discard it: a record is either wholly present or wholly absent, which is
// what carries a cross-shard transaction's atomicity onto disk.
//
// Payloads come in two shapes:
//
//	update: u8 recUpdate | u32 shard | u64 seq | u32 nops | nops × op
//	atomic: u8 recAtomic | u32 nparts | nparts × (u32 shard | u64 seq | u32 nops | nops × op)
//	op:     u8 kind (0 put, 1 delete) | u64 key | u64 val (0 for deletes)
//
// An update record is one committed single-shard transaction: its shard
// index and the commit-clock position its publication carried. An atomic
// record is one cross-shard commit, carrying each participating shard's
// share of the write set with that shard's lock-point clock position.
// Replay is idempotent and order-insensitive across shards: positions are
// unique per shard, recovery sorts each shard's surviving groups by
// position and skips those at or below the checkpoint's cut.

// Op is one logged effect: an absolute put of Val at Key, or a deletion.
type Op struct {
	Key uint64
	Val uint64
	Del bool
}

// ShardOps is one shard's share of a logged commit: the ops the transaction
// applied to the shard and the shard-clock position they published at.
type ShardOps struct {
	Shard int
	Seq   uint64
	Ops   []Op
}

// Record type tags (first payload byte).
const (
	recUpdate byte = 1
	recAtomic byte = 2
)

// maxPayload bounds a record payload; a framed length beyond it is treated
// as corruption rather than an allocation request.
const maxPayload = 1 << 24

// frameOverhead is the framing cost per record (length + CRC).
const frameOverhead = 8

// crcTable is the Castagnoli table shared by records and checkpoints.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendOp encodes one op.
func appendOp(b []byte, op Op) []byte {
	kind := byte(0)
	val := op.Val
	if op.Del {
		kind = 1
		val = 0
	}
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, op.Key)
	b = binary.LittleEndian.AppendUint64(b, val)
	return b
}

// appendGroup encodes one shard group (shard, seq, ops).
func appendGroup(b []byte, g ShardOps) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(g.Shard))
	b = binary.LittleEndian.AppendUint64(b, g.Seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(g.Ops)))
	for _, op := range g.Ops {
		b = appendOp(b, op)
	}
	return b
}

// encodeUpdate appends an update-record payload to b.
func encodeUpdate(b []byte, shard int, seq uint64, ops []Op) []byte {
	b = append(b, recUpdate)
	return appendGroup(b, ShardOps{Shard: shard, Seq: seq, Ops: ops})
}

// encodeAtomic appends an atomic-record payload to b.
func encodeAtomic(b []byte, parts []ShardOps) []byte {
	b = append(b, recAtomic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(parts)))
	for _, p := range parts {
		b = appendGroup(b, p)
	}
	return b
}

// beginFrame reserves a frame header at the end of b and returns its
// offset: the caller appends the payload straight behind it — no staging
// copy — and seals the frame with endFrame.
func beginFrame(b []byte) ([]byte, int) {
	return append(b, make([]byte, frameOverhead)...), len(b)
}

// endFrame fills in the header reserved at start: the length and CRC of
// the payload, which is everything behind the header.
func endFrame(b []byte, start int) {
	payload := b[start+frameOverhead:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
}

// frame appends the length+CRC framing and the payload to b.
func frame(b, payload []byte) []byte {
	b, start := beginFrame(b)
	b = append(b, payload...)
	endFrame(b, start)
	return b
}

// decoder walks an encoded payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) u8() (byte, error) {
	if d.off+1 > len(d.b) {
		return 0, fmt.Errorf("durable: truncated payload at byte %d", d.off)
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, fmt.Errorf("durable: truncated payload at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.b) {
		return 0, fmt.Errorf("durable: truncated payload at byte %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// group decodes one shard group, validating the shard index against shards.
func (d *decoder) group(shards int) (ShardOps, error) {
	var g ShardOps
	sh, err := d.u32()
	if err != nil {
		return g, err
	}
	if int(sh) >= shards {
		return g, fmt.Errorf("durable: record shard %d out of range (log has %d shards)", sh, shards)
	}
	g.Shard = int(sh)
	if g.Seq, err = d.u64(); err != nil {
		return g, err
	}
	nops, err := d.u32()
	if err != nil {
		return g, err
	}
	if int(nops) > (len(d.b)-d.off)/17 {
		return g, fmt.Errorf("durable: op count %d exceeds remaining payload", nops)
	}
	g.Ops = make([]Op, nops)
	for i := range g.Ops {
		kind, err := d.u8()
		if err != nil {
			return g, err
		}
		if kind > 1 {
			return g, fmt.Errorf("durable: unknown op kind %d", kind)
		}
		g.Ops[i].Del = kind == 1
		if g.Ops[i].Key, err = d.u64(); err != nil {
			return g, err
		}
		if g.Ops[i].Val, err = d.u64(); err != nil {
			return g, err
		}
		if g.Ops[i].Del && g.Ops[i].Val != 0 {
			// The encoder always writes 0 for deletions; anything else is
			// corruption (and keeping the codec canonical lets the fuzz
			// round-trip assert byte-identical re-encoding).
			return g, fmt.Errorf("durable: delete op with nonzero value")
		}
	}
	return g, nil
}

// decodePayload decodes one record payload into its shard groups (an update
// record yields one group). shards bounds the shard indices; a trailing
// excess of bytes is corruption.
func decodePayload(payload []byte, shards int) ([]ShardOps, error) {
	d := &decoder{b: payload}
	tag, err := d.u8()
	if err != nil {
		return nil, err
	}
	var parts []ShardOps
	switch tag {
	case recUpdate:
		g, err := d.group(shards)
		if err != nil {
			return nil, err
		}
		parts = []ShardOps{g}
	case recAtomic:
		n, err := d.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > shards {
			return nil, fmt.Errorf("durable: atomic record with %d parts on a %d-shard log", n, shards)
		}
		parts = make([]ShardOps, 0, n)
		for i := 0; i < int(n); i++ {
			g, err := d.group(shards)
			if err != nil {
				return nil, err
			}
			parts = append(parts, g)
		}
	default:
		return nil, fmt.Errorf("durable: unknown record type %d", tag)
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("durable: %d trailing bytes after record", len(payload)-d.off)
	}
	return parts, nil
}

// readRecord parses one framed record from b, returning the shard groups
// and the total bytes consumed. A short header, short payload, implausible
// length or CRC mismatch returns an error — the caller treats it as the
// torn tail and discards everything from b onward.
func readRecord(b []byte, shards int) ([]ShardOps, int, error) {
	if len(b) < frameOverhead {
		return nil, 0, fmt.Errorf("durable: short record header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n > maxPayload {
		return nil, 0, fmt.Errorf("durable: implausible record length %d", n)
	}
	if len(b) < frameOverhead+int(n) {
		return nil, 0, fmt.Errorf("durable: truncated record payload (%d of %d bytes)", len(b)-frameOverhead, n)
	}
	payload := b[frameOverhead : frameOverhead+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, fmt.Errorf("durable: record checksum mismatch")
	}
	parts, err := decodePayload(payload, shards)
	if err != nil {
		return nil, 0, err
	}
	return parts, frameOverhead + int(n), nil
}
