package wal

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/metadata"
)

// Op identifies a record's mutation kind.
type Op uint8

const (
	// OpInsert is an insert batch (a single insert is a batch of one).
	OpInsert Op = 1
	// OpDelete removes one file by id.
	OpDelete Op = 2
	// OpModify replaces one file's attribute vector.
	OpModify Op = 3
	// OpFlush is a legacy record: older stores logged a body-free
	// epoch bump for every effectual replica propagation. It still
	// decodes, and replays as a no-op that keeps its epoch, so old logs
	// recover along their stamped trajectory; nothing writes it now.
	OpFlush Op = 4
)

// String returns the op's short name.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpModify:
		return "modify"
	case OpFlush:
		return "flush"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one logged mutation. Epoch is the shard's mutation epoch
// after applying the record — the value a snapshot persists as the
// shard's truncation point, so recovery replays exactly the records
// beyond the snapshot. BatchID is nonzero when the record is one
// shard's slice of a multi-shard insert batch; Targets then lists every
// shard the batch spans, and recovery applies the batch only when all
// of them logged it (otherwise the batch was never acknowledged and is
// dropped atomically).
type Record struct {
	Op      Op
	Epoch   uint64
	BatchID uint64
	Targets []int
	// Files carries the insert batch's records (OpInsert) or the single
	// replacement record (OpModify).
	Files []metadata.File
	// ID is the deleted file id (OpDelete).
	ID uint64
}

// Payload layout (all integers little-endian; documented byte-for-byte
// in DESIGN.md §7):
//
//	[1]  op
//	[8]  epoch
//	[8]  batch id
//	op=insert: [2] target count, [4]×n target shard ids,
//	           [4] file count, then files
//	op=delete: [8] file id
//	op=modify: one file
//	op=flush:  no body
//
//	file: [8] id, [4] sub-trace (int32), [2] path length, path bytes,
//	      [7×8] attribute values (IEEE-754 bits)
const (
	payloadFixedSize = 1 + 8 + 8
	fileFixedSize    = 8 + 4 + 2 + 8*int(metadata.NumAttrs)
	maxPathLen       = math.MaxUint16
	maxTargets       = math.MaxUint16
)

// encodePayload serializes a record into the on-disk payload.
func encodePayload(rec *Record) ([]byte, error) {
	size := payloadFixedSize
	switch rec.Op {
	case OpInsert:
		if len(rec.Targets) > maxTargets {
			return nil, fmt.Errorf("wal: %d batch targets exceed the format's limit", len(rec.Targets))
		}
		size += 2 + 4*len(rec.Targets) + 4
		for i := range rec.Files {
			if len(rec.Files[i].Path) > maxPathLen {
				return nil, fmt.Errorf("wal: path of file %d exceeds %d bytes", rec.Files[i].ID, maxPathLen)
			}
			size += fileFixedSize + len(rec.Files[i].Path)
		}
	case OpDelete:
		size += 8
	case OpFlush:
		// header only
	case OpModify:
		if len(rec.Files) != 1 {
			return nil, fmt.Errorf("wal: modify record carries %d files, want 1", len(rec.Files))
		}
		if len(rec.Files[0].Path) > maxPathLen {
			return nil, fmt.Errorf("wal: path of file %d exceeds %d bytes", rec.Files[0].ID, maxPathLen)
		}
		size += fileFixedSize + len(rec.Files[0].Path)
	default:
		return nil, fmt.Errorf("wal: unknown op %d", rec.Op)
	}

	buf := make([]byte, 0, size)
	buf = append(buf, byte(rec.Op))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Epoch)
	buf = binary.LittleEndian.AppendUint64(buf, rec.BatchID)
	switch rec.Op {
	case OpInsert:
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Targets)))
		for _, t := range rec.Targets {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Files)))
		for i := range rec.Files {
			buf = appendFile(buf, &rec.Files[i])
		}
	case OpDelete:
		buf = binary.LittleEndian.AppendUint64(buf, rec.ID)
	case OpModify:
		buf = appendFile(buf, &rec.Files[0])
	case OpFlush:
	}
	return buf, nil
}

func appendFile(buf []byte, f *metadata.File) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, f.ID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(f.SubTrace)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Path)))
	buf = append(buf, f.Path...)
	for a := 0; a < int(metadata.NumAttrs); a++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f.Attrs[a]))
	}
	return buf
}

// decoder tracks a cursor over a payload; every read is bounds-checked
// so arbitrary (fuzzed, corrupted) bytes decode to an error, never a
// panic.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("wal: payload truncated at byte %d", d.off)
		return false
	}
	return true
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str(n int) string {
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) file() metadata.File {
	var f metadata.File
	f.ID = d.u64()
	f.SubTrace = int(int32(d.u32()))
	f.Path = d.str(int(d.u16()))
	for a := 0; a < int(metadata.NumAttrs); a++ {
		f.Attrs[a] = math.Float64frombits(d.u64())
	}
	return f
}

// decodePayload parses one record payload, rejecting malformed input
// (bad op, truncation, trailing bytes) with an error.
func decodePayload(buf []byte) (Record, error) {
	d := &decoder{buf: buf}
	var rec Record
	if !d.need(1) {
		return Record{}, d.err
	}
	rec.Op = Op(d.buf[0])
	d.off = 1
	rec.Epoch = d.u64()
	rec.BatchID = d.u64()
	switch rec.Op {
	case OpInsert:
		nt := int(d.u16())
		if d.err == nil && nt > 0 {
			rec.Targets = make([]int, nt)
			for i := 0; i < nt; i++ {
				rec.Targets[i] = int(d.u32())
			}
		}
		nf := d.u32()
		if d.err != nil {
			return Record{}, d.err
		}
		// Bound the allocation by what the payload can actually hold.
		if int(nf) > len(buf)/fileFixedSize+1 {
			return Record{}, fmt.Errorf("wal: file count %d exceeds payload", nf)
		}
		rec.Files = make([]metadata.File, 0, nf)
		for i := 0; i < int(nf); i++ {
			rec.Files = append(rec.Files, d.file())
		}
	case OpDelete:
		rec.ID = d.u64()
	case OpModify:
		rec.Files = []metadata.File{d.file()}
	case OpFlush:
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if d.off != len(buf) {
		return Record{}, fmt.Errorf("wal: %d trailing bytes after record", len(buf)-d.off)
	}
	return rec, nil
}
