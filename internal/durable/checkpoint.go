package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// A checkpoint file is one consistent snapshot of the whole store, written
// beside the WAL so recovery replays only the log tail:
//
//	magic "SFCKPT02"
//	u64 gen | u64 baseSeg | u64 cut
//	u64 npairs | npairs × (u64 key, u64 val)
//	u32 CRC-32C of everything before it
//
// gen orders checkpoints; baseSeg is the first WAL segment whose records
// may postdate the snapshot (the segment the log rotated to at the start of
// the checkpoint), so recovery replays segments >= baseSeg and ignores any
// older ones a crash left behind; cut is the commit-clock position the
// snapshot was taken at (see Source). The file is written to a temporary
// name, synced, and renamed into place — the rename is the seal: recovery
// only ever reads *.ckpt files, so a torn checkpoint write is invisible.

const ckptMagic = "SFCKPT02"

// checkpointMeta is a loaded checkpoint's header.
type checkpointMeta struct {
	gen     uint64
	baseSeg uint64
	cut     uint64
}

// checkpointName returns the sealed name of generation gen.
func checkpointName(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%016d.ckpt", gen))
}

// encodeCheckpoint encodes one full checkpoint file, CRC included. The
// encoding is canonical: decodeCheckpoint accepts exactly what this returns
// (FuzzCheckpointDecode).
func encodeCheckpoint(gen, baseSeg, cut uint64, pairs []kvPair) []byte {
	b := make([]byte, 0, len(ckptMagic)+24+8+16*len(pairs)+4)
	b = append(b, ckptMagic...)
	b = binary.LittleEndian.AppendUint64(b, gen)
	b = binary.LittleEndian.AppendUint64(b, baseSeg)
	b = binary.LittleEndian.AppendUint64(b, cut)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = binary.LittleEndian.AppendUint64(b, p.k)
		b = binary.LittleEndian.AppendUint64(b, p.v)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// readCheckpoint loads and validates one sealed checkpoint file, returning
// its header and pairs. It returns an error for any structural damage —
// recovery then falls back to an older checkpoint — and one wrapping
// errOldFormat for a file of the old format, which recovery refuses.
func readCheckpoint(path string) (checkpointMeta, []kvPair, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return checkpointMeta{}, nil, err
	}
	meta, pairs, err := decodeCheckpoint(b)
	if err != nil {
		return meta, nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	return meta, pairs, nil
}

// decodeCheckpoint decodes and validates one whole checkpoint file, CRC
// included.
func decodeCheckpoint(b []byte) (checkpointMeta, []kvPair, error) {
	var meta checkpointMeta
	if bytes.HasPrefix(b, []byte(ckptMagicV1)) {
		return meta, nil, errOldFormat
	}
	if len(b) < len(ckptMagic)+24+8+4 || string(b[:len(ckptMagic)]) != ckptMagic {
		return meta, nil, fmt.Errorf("not a checkpoint file")
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return meta, nil, fmt.Errorf("checkpoint checksum mismatch")
	}
	d := &decoder{b: body, off: len(ckptMagic)}
	var err error
	if meta.gen, err = d.u64(); err != nil {
		return meta, nil, err
	}
	if meta.baseSeg, err = d.u64(); err != nil {
		return meta, nil, err
	}
	if meta.cut, err = d.u64(); err != nil {
		return meta, nil, err
	}
	n, err := d.u64()
	if err != nil {
		return meta, nil, err
	}
	if n > uint64(len(body)-d.off)/16 {
		return meta, nil, fmt.Errorf("pair count %d exceeds file size", n)
	}
	pairs := make([]kvPair, 0, n)
	for i := uint64(0); i < n; i++ {
		k, err := d.u64()
		if err != nil {
			return meta, nil, err
		}
		v, err := d.u64()
		if err != nil {
			return meta, nil, err
		}
		pairs = append(pairs, kvPair{k: k, v: v})
	}
	if d.off != len(body) {
		return meta, nil, fmt.Errorf("%d trailing bytes", len(body)-d.off)
	}
	return meta, pairs, nil
}

// kvPair is one checkpointed element.
type kvPair struct{ k, v uint64 }

// syncDir fsyncs a directory so renames and file creations within it are
// durable (best-effort on platforms where directories cannot be synced).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		// Some filesystems reject fsync on directories; the metadata will
		// reach disk with the next journal flush regardless.
		return nil
	}
	return nil
}

// sealFile writes b to path via a temporary name, fsyncing the file before
// the rename and the directory after it — the rename is the seal.
func sealFile(dir, path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}
