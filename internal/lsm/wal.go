package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"sistream/internal/kv"
)

// The write-ahead log is the store's only write path: every Apply is one
// framed record appended to the active log segment. Segments are sealed
// when the unfolded log grows past the fold threshold and deleted once a
// checkpoint that folds them is installed (see db.go).
//
// Record framing:
//
//	uint32 little-endian payload length
//	uint32 little-endian CRC-32C of the payload
//	payload
//
// The payload is a batch: varint op count, then for each op a kind byte
// (opKindPut/opKindDelete), varint key length, key bytes, and for puts a
// varint value length plus value bytes. Torn tails (partial records from a
// crash mid-write) are detected by length/CRC mismatch and discarded, which
// is correct because a torn record was never acknowledged as durable.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt reports a malformed log, checkpoint or CURRENT file.
var errCorrupt = errors.New("lsm: corrupt file")

// On-disk op kinds of a batch payload.
const (
	opKindPut    = 1
	opKindDelete = 2
)

// walHeaderLen is the framing overhead of one record.
const walHeaderLen = 8

// walWriter appends framed records to a log segment. Its error is STICKY:
// after a failed (or short) write or a failed fsync the segment's durable
// contents are unknown — the kernel may have dropped the dirty pages
// after reporting the fsync error (the fsyncgate behavior), so a later
// append or sync reporting success would be a lie. Every subsequent
// operation returns the original error.
type walWriter struct {
	f   *os.File
	buf []byte // the record being framed; reused across appends
	err error  // first write/sync failure; sticky (see type comment)
}

func newWALWriter(path string) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lsm: open wal: %w", err)
	}
	return &walWriter{f: f}, nil
}

// appendBatch frames ops as one record in the reused buffer and appends
// it, syncing the file when sync is true. It returns the framed length.
func (w *walWriter) appendBatch(ops []kv.Op, sync bool) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.buf = encodeBatchPayload(append(w.buf[:0], make([]byte, walHeaderLen)...), ops)
	payload := w.buf[walHeaderLen:]
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(payload, crcTable))
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("lsm: wal write: %w", err)
		return 0, w.err
	}
	if sync {
		return len(w.buf), w.sync()
	}
	return len(w.buf), nil
}

// sync fsyncs the log, latching any failure like appendBatch does.
func (w *walWriter) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("lsm: wal sync: %w", err)
		return w.err
	}
	return nil
}

func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// walReplayStats summarizes one replay pass: how many durable records
// were applied, how many bytes they span, and whether the segment ended
// in a torn final record (a partial append from a crash, discarded as
// never-acknowledged). DB.Open accumulates these into the counters
// DB.Stats reports.
type walReplayStats struct {
	records  int
	valid    int64 // bytes of whole, valid records from the start
	tornTail bool
}

// replayWAL reads the segment at path and replays it (see replaySegment).
func replayWAL(path string, apply func(ops []kv.Op) error) (walReplayStats, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return walReplayStats{}, err
	}
	return replaySegment(data, apply)
}

// replaySegment decodes the records of a segment in order, calling apply
// (when non-nil) for each batch; the ops alias data and a buffer reused
// across calls. It tolerates (and stops at) a torn FINAL record — a
// partial write from a crash mid-append, which was never acknowledged as
// durable — but a record that fails its CRC (or declares an implausible
// length) with more log data after it is mid-file corruption: records
// beyond it WERE acknowledged durable, so silently dropping them would be
// data loss. That case surfaces errCorrupt with the record's offset; the
// torn-tail test is purely physical — the broken record must extend to
// the end of the segment. (DumpWAL is the salvage path for corrupt logs:
// it can skip the broken record and recover what follows.)
func replaySegment(data []byte, apply func(ops []kv.Op) error) (walReplayStats, error) {
	var st walReplayStats
	var ops []kv.Op
	size := int64(len(data))
	for off := int64(0); off < size; {
		if size-off < walHeaderLen {
			st.tornTail = true // torn header
			return st, nil
		}
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		end := off + walHeaderLen + n
		// A broken record that reaches the physical end of the segment is
		// a partial append, never acknowledged: a torn tail.
		if n > maxWALPayload || end > size {
			if end >= size {
				st.tornTail = true
				return st, nil
			}
			return st, fmt.Errorf("%w: wal record at offset %d: implausible length %d with %d bytes following",
				errCorrupt, off, n, size-off-walHeaderLen)
		}
		payload := data[off+walHeaderLen : end]
		if crc32.Checksum(payload, crcTable) != want {
			if end == size {
				st.tornTail = true
				return st, nil
			}
			return st, fmt.Errorf("%w: wal record at offset %d: crc mismatch with %d bytes of log following",
				errCorrupt, off, size-end)
		}
		var err error
		if ops, err = decodeBatchPayload(ops[:0], payload); err != nil {
			return st, fmt.Errorf("%w: wal record at offset %d: malformed batch payload", errCorrupt, off)
		}
		if apply != nil {
			if err := apply(ops); err != nil {
				return st, err
			}
		}
		st.records++
		off = end
		st.valid = off
	}
	return st, nil
}

// maxWALPayload bounds a plausible WAL record payload (1 GiB); larger
// declared lengths are treated as corruption.
const maxWALPayload = 1 << 30

// encodeBatchPayload appends the batch encoding of ops to buf.
func encodeBatchPayload(buf []byte, ops []kv.Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, op := range ops {
		if op.Kind == kv.OpDelete {
			buf = append(buf, opKindDelete)
			buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
			buf = append(buf, op.Key...)
			continue
		}
		buf = append(buf, opKindPut)
		buf = binary.AppendUvarint(buf, uint64(len(op.Key)))
		buf = append(buf, op.Key...)
		buf = binary.AppendUvarint(buf, uint64(len(op.Value)))
		buf = append(buf, op.Value...)
	}
	return buf
}

// decodeBatchPayload appends the ops of a batch payload to dst. Keys and
// values alias p.
func decodeBatchPayload(dst []kv.Op, p []byte) ([]kv.Op, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return dst, errCorrupt
	}
	p = p[n:]
	for i := uint64(0); i < count; i++ {
		if len(p) < 1 {
			return dst, errCorrupt
		}
		kind := p[0]
		p = p[1:]
		if kind != opKindPut && kind != opKindDelete {
			return dst, errCorrupt
		}
		var key, val []byte
		var ok bool
		if key, p, ok = cutUvarintBytes(p); !ok {
			return dst, errCorrupt
		}
		op := kv.Op{Kind: kv.OpDelete, Key: key}
		if kind == opKindPut {
			if val, p, ok = cutUvarintBytes(p); !ok {
				return dst, errCorrupt
			}
			op = kv.Op{Kind: kv.OpPut, Key: key, Value: val}
		}
		dst = append(dst, op)
	}
	if len(p) != 0 {
		return dst, errCorrupt
	}
	return dst, nil
}

// cutUvarintBytes splits a uvarint length-prefixed byte string off the
// front of p; ok is false when the prefix or the string is truncated.
func cutUvarintBytes(p []byte) (s, rest []byte, ok bool) {
	l, n := binary.Uvarint(p)
	if n <= 0 || l > uint64(len(p)-n) {
		return nil, p, false
	}
	end := n + int(l)
	return p[n:end:end], p[end:], true
}
