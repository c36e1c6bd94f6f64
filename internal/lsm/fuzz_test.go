package lsm

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"sistream/internal/kv"
)

// The native fuzz targets cover everything the store parses from disk:
// checkpoint files, WAL batch payloads and segments, and CURRENT.
// Arbitrary bytes must give an error, never a panic or an out-of-range
// read. Seed corpora live in testdata/fuzz/<target>; CI runs each target
// for a few seconds:
//
//	go test -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime 10s ./internal/lsm/

// FuzzCheckpointDecode parses arbitrary bytes as a checkpoint (footer,
// block index, block CRCs, entry varints) and reads it back every way the
// store does. When a full scan succeeds, every pair it yields must be
// found again by a point lookup and by a seek.
func FuzzCheckpointDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseCheckpoint(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var pairs [][2][]byte
		it := c.iter(nil, nil)
		for it.next() {
			pairs = append(pairs, [2][]byte{bytes.Clone(it.key), bytes.Clone(it.val)})
		}
		for _, h := range c.index {
			c.get(h.first)
		}
		if it.err != nil {
			return
		}
		for _, p := range pairs {
			v, ok, err := c.get(p[0])
			if err != nil || !ok || !bytes.Equal(v, p[1]) {
				t.Fatalf("scanned %q=%q, Get = %q %v %v", p[0], p[1], v, ok, err)
			}
			s := c.iter(p[0], nil)
			if !s.next() || !bytes.Equal(s.key, p[0]) {
				t.Fatalf("seek to scanned key %q landed on %q (%v)", p[0], s.key, s.err)
			}
		}
	})
}

// frameRecord frames payload as one WAL record.
func frameRecord(payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crcTable))
	return append(rec, payload...)
}

// FuzzWALPayload decodes arbitrary bytes as a batch payload, replays them
// framed as a record with a valid CRC, and dumps them as a raw segment in
// strict and salvage mode. A payload that decodes must survive an
// encode/decode round trip; a segment that recovery accepts must dump
// strictly with the same records.
func FuzzWALPayload(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeBatchPayload(nil, data)
		st, rerr := replaySegment(frameRecord(data), nil)
		if (err == nil) != (rerr == nil) || (err == nil && st.records != 1) {
			t.Fatalf("payload decode %v, but replay of its record: %v (%+v)", err, rerr, st)
		}
		if err == nil {
			again, err := decodeBatchPayload(nil, encodeBatchPayload(nil, ops))
			if err != nil || len(again) != len(ops) {
				t.Fatalf("round trip: %d ops -> %d (%v)", len(ops), len(again), err)
			}
			for i := range ops {
				if again[i].Kind != ops[i].Kind || !bytes.Equal(again[i].Key, ops[i].Key) || !bytes.Equal(again[i].Value, ops[i].Value) {
					t.Fatalf("round trip op %d: %+v -> %+v", i, ops[i], again[i])
				}
			}
		}
		st, rerr = replaySegment(data, func([]kv.Op) error { return nil })
		strict, serr := dumpSegment(data, false, nil)
		if rerr == nil && (serr != nil || strict.Records != st.records) {
			t.Fatalf("recovery replays %d records, strict dump %d (%v)", st.records, strict.Records, serr)
		}
		if _, err := dumpSegment(data, true, nil); err != nil {
			t.Fatalf("salvage dump failed: %v", err)
		}
	})
}

// FuzzCurrent parses arbitrary bytes as a CURRENT file; whatever parses
// must name the same checkpoint after being written back.
func FuzzCurrent(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		num, err := parseCurrent(data)
		if err != nil {
			return
		}
		dir := t.TempDir()
		if err := writeCurrent(dir, num); err != nil {
			t.Fatal(err)
		}
		got, ok, err := readCurrent(dir)
		if err != nil || !ok || got != num {
			t.Fatalf("CURRENT %q -> %d, written back as %d (%v %v)", data, num, got, ok, err)
		}
	})
}
