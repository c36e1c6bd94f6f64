package lsm

// WAL salvage tooling (lsmtool wal-dump). Recovery (replayWAL) is
// deliberately strict: mid-file corruption fails the Open, because
// records beyond the broken one were acknowledged durable and silently
// dropping them would be data loss. DumpWAL is the operator's escape
// hatch for exactly that situation — it decodes a log read-only, without
// opening the database, and in salvage mode resynchronizes past corrupt
// records so the surviving operations can be inspected or re-applied by
// hand.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"sistream/internal/kv"
)

// WALEntry is one decoded operation of a dumped WAL record: an update of
// Key to Value, or a deletion of Key when Delete is set. The byte slices
// alias the dump's read buffer and are only valid during the callback.
type WALEntry struct {
	Key    []byte
	Value  []byte
	Delete bool
}

// WALDumpStats summarizes one DumpWAL pass.
type WALDumpStats struct {
	// Records and Ops count the well-formed records decoded and the
	// operations they carried.
	Records, Ops int
	// CorruptRecords counts corrupt spots: the ones skipped in salvage
	// mode, or the one that stopped a strict dump (whose offset the
	// returned error names). SkippedBytes is the log volume lost to
	// skipped spots and to a torn tail; a strict dump stopped by
	// corruption skips nothing.
	CorruptRecords int
	SkippedBytes   int64
	// TornTail reports a partial final record — a crash mid-append,
	// benign (never acknowledged as durable) and therefore not counted
	// into CorruptRecords.
	TornTail bool
}

// DumpWAL decodes the write-ahead log at path in order, calling fn for
// each well-formed record with the record's byte offset and decoded
// operations; fn returning false stops the dump early. The file is read
// directly — no DB is opened, nothing is modified.
//
// Without skipCorrupt the dump mirrors recovery semantics: a torn final
// record ends the dump cleanly (TornTail), mid-file corruption stops it
// with an error. With skipCorrupt the dump salvages instead: it skips
// the corrupt spot, resynchronizes on the next offset where a whole
// record validates (length plausible, payload present, CRC and batch
// encoding valid — a false positive is practically impossible), counts
// the corruption and continues. The whole file is read into memory, so
// the tool handles segments of the size the fold threshold produces,
// not arbitrarily large files.
func DumpWAL(path string, skipCorrupt bool, fn func(offset int64, ops []WALEntry) bool) (WALDumpStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WALDumpStats{}, err
	}
	return dumpSegment(data, skipCorrupt, fn)
}

// dumpSegment is DumpWAL over a segment's bytes.
func dumpSegment(data []byte, skipCorrupt bool, fn func(offset int64, ops []WALEntry) bool) (WALDumpStats, error) {
	var st WALDumpStats
	var scratch []kv.Op
	// validRecordAt decodes the record starting at off, returning its
	// total framed length and operations, or ok=false when anything about
	// it is broken.
	validRecordAt := func(off int64) (ops []kv.Op, framed int64, ok bool) {
		if off+8 > int64(len(data)) {
			return nil, 0, false
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxWALPayload || off+8+int64(n) > int64(len(data)) {
			return nil, 0, false
		}
		payload := data[off+8 : off+8+int64(n)]
		// Decode before checksumming: during salvage resynchronization
		// this runs at every candidate offset, and random bytes fail the
		// batch framing within a few bytes (kind must be 1 or 2, varints
		// must fit) while the CRC always walks the whole payload.
		ops, err := decodeBatchPayload(scratch[:0], payload)
		scratch = ops
		if err != nil {
			return nil, 0, false
		}
		if crc32.Checksum(payload, crcTable) != want {
			return nil, 0, false
		}
		return ops, 8 + int64(n), true
	}
	// tornTail reports whether the breakage at off physically extends to
	// the end of the file — the only place a benign partial append lives.
	// The test is purely physical, exactly replayWAL's: an implausible
	// length also declares an extent past EOF, so a garbage final header
	// is torn, not corrupt, and a strict dump accepts every log recovery
	// accepts.
	tornTail := func(off int64) bool {
		if off+8 > int64(len(data)) {
			return true
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		return off+8+int64(n) >= int64(len(data))
	}

	out := make([]WALEntry, 0, 64)
	off := int64(0)
	for off < int64(len(data)) {
		ops, framed, ok := validRecordAt(off)
		if !ok {
			if !skipCorrupt {
				if tornTail(off) {
					st.TornTail = true
					st.SkippedBytes += int64(len(data)) - off
					return st, nil
				}
				st.CorruptRecords++
				return st, fmt.Errorf("%w: wal record at offset %d: %d bytes of log following",
					errCorrupt, off, int64(len(data))-off)
			}
			// Salvage: resynchronize on the next offset holding a fully
			// valid record — even when the breakage LOOKS like a torn tail
			// (garbage length bytes can fake a record overrunning EOF
			// while real records follow). Only a breakage with nothing
			// valid after it is classified by its physical shape.
			next := off + 1
			for ; next < int64(len(data)); next++ {
				if _, _, ok := validRecordAt(next); ok {
					break
				}
			}
			st.SkippedBytes += next - off
			if next >= int64(len(data)) {
				if tornTail(off) {
					st.TornTail = true
				} else {
					st.CorruptRecords++
				}
				return st, nil
			}
			st.CorruptRecords++
			off = next
			continue
		}
		out = out[:0]
		for _, op := range ops {
			out = append(out, WALEntry{Key: op.Key, Value: op.Value, Delete: op.Kind == kv.OpDelete})
		}
		st.Records++
		st.Ops += len(ops)
		if fn != nil && !fn(off, out) {
			return st, nil
		}
		off += framed
	}
	return st, nil
}

// WALFiles lists the log segments of a database directory, oldest first
// (by file number), including folded ones a crash left behind. It reads
// only the directory listing; no DB is opened.
func WALFiles(dir string) ([]string, error) {
	files, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(files.wals))
	for i, num := range files.wals {
		paths[i] = walPath(dir, num)
	}
	return paths, nil
}
