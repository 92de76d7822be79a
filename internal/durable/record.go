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
// what carries a transaction's atomicity onto disk, whichever shards its
// keys live on.
//
// A payload is one committed transaction:
//
//	u64 pos | u32 nops | nops × op
//	op: u8 kind (0 put, 1 delete) | u64 key | u64 val (0 for deletes)
//
// pos is the commit-clock position the transaction's publication carried.
// Every commit of a forest draws its position from the one STM version
// clock, so recovery sorts the surviving records by position alone and
// skips those at or below the checkpoint's cut; replay is idempotent.

// Op is one logged effect: an absolute put of Val at Key, or a deletion.
type Op struct {
	Key uint64
	Val uint64
	Del bool
}

// record is one decoded WAL record: a transaction's commit position and
// its effects in the order it made them.
type record struct {
	pos uint64
	ops []Op
}

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

// encodeRecord appends a record payload to b.
func encodeRecord(b []byte, pos uint64, ops []Op) []byte {
	b = binary.LittleEndian.AppendUint64(b, pos)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
	for _, op := range ops {
		b = appendOp(b, op)
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

// decodePayload decodes one record payload; a trailing excess of bytes is
// corruption.
func decodePayload(payload []byte) (record, error) {
	d := &decoder{b: payload}
	var r record
	var err error
	if r.pos, err = d.u64(); err != nil {
		return r, err
	}
	nops, err := d.u32()
	if err != nil {
		return r, err
	}
	if int(nops) > (len(d.b)-d.off)/17 {
		return r, fmt.Errorf("durable: op count %d exceeds remaining payload", nops)
	}
	r.ops = make([]Op, nops)
	for i := range r.ops {
		kind, err := d.u8()
		if err != nil {
			return r, err
		}
		if kind > 1 {
			return r, fmt.Errorf("durable: unknown op kind %d", kind)
		}
		r.ops[i].Del = kind == 1
		if r.ops[i].Key, err = d.u64(); err != nil {
			return r, err
		}
		if r.ops[i].Val, err = d.u64(); err != nil {
			return r, err
		}
		if r.ops[i].Del && r.ops[i].Val != 0 {
			// The encoder always writes 0 for deletions; anything else is
			// corruption (and keeping the codec canonical lets the fuzz
			// round-trip assert byte-identical re-encoding).
			return r, fmt.Errorf("durable: delete op with nonzero value")
		}
	}
	if d.off != len(payload) {
		return r, fmt.Errorf("durable: %d trailing bytes after record", len(payload)-d.off)
	}
	return r, nil
}

// readRecord parses one framed record from b, returning it and the total
// bytes consumed. A short header, short payload, implausible length or CRC
// mismatch returns an error — the caller treats it as the torn tail and
// discards everything from b onward.
func readRecord(b []byte) (record, int, error) {
	if len(b) < frameOverhead {
		return record{}, 0, fmt.Errorf("durable: short record header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if n > maxPayload {
		return record{}, 0, fmt.Errorf("durable: implausible record length %d", n)
	}
	if len(b) < frameOverhead+int(n) {
		return record{}, 0, fmt.Errorf("durable: truncated record payload (%d of %d bytes)", len(b)-frameOverhead, n)
	}
	payload := b[frameOverhead : frameOverhead+int(n)]
	if crc32.Checksum(payload, crcTable) != sum {
		return record{}, 0, fmt.Errorf("durable: record checksum mismatch")
	}
	r, err := decodePayload(payload)
	if err != nil {
		return record{}, 0, err
	}
	return r, frameOverhead + int(n), nil
}
