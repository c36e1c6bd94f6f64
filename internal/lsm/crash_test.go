package lsm

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sistream/internal/kv"
)

// These tests take the on-disk image a crash leaves at each window of a
// fold — temp checkpoint written but not renamed, checkpoint renamed but
// CURRENT not switched, CURRENT switched but the folded files not yet
// deleted, a torn append after a fold — and assert that Open recovers
// exactly the committed data: orphans ignored and removed, folded
// segments not replayed, torn tails classified as expected tails rather
// than corruption.

// copyDir copies the regular files of src into a fresh directory: the
// image of src a crash at this instant would leave (every write so far
// reached disk).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// crashImageAt builds a store with a checkpoint ("a", "b"="old") and a
// live log over it ("b"="new", "c", "a" deleted), then folds with a crash
// image taken at stage. It returns the image and the committed state.
func crashImageAt(t *testing.T, stage foldStage) (string, map[string]string) {
	t.Helper()
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, p := range [][2]string{{"a", "1"}, {"b", "old"}} {
		if err := d.Put([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("b"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	var image string
	d.foldHook = func(s foldStage) error {
		if s == stage {
			image = copyDir(t, dir)
		}
		return nil
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return image, map[string]string{"b": "new", "c": "3"}
}

// expectAll asserts that the DB serves exactly the committed map.
func expectAll(t *testing.T, d *DB, want map[string]string) {
	t.Helper()
	got := map[string]string{}
	if err := d.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("recovered %q=%q, want %q", k, got[k], v)
		}
		if g, ok, err := d.Get([]byte(k)); err != nil || !ok || string(g) != v {
			t.Fatalf("Get(%q) = %q %v %v, want %q", k, g, ok, err, v)
		}
	}
}

// onlyLiveFiles asserts that dir holds exactly the store's live files: CURRENT,
// the checkpoint it names and segments above it.
func onlyLiveFiles(t *testing.T, dir string) {
	t.Helper()
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("recovery left orphans behind: %v", rep.Orphans)
	}
}

// TestCrashDuringCompactionLeavesOrphans: a crash mid-fold, after the
// temp checkpoint is written and synced but before its rename, leaves a
// .tmp file next to a CURRENT that still names the old checkpoint.
// Recovery must take the old checkpoint plus the log as truth, remove the
// temp file, and fold cleanly afterwards.
func TestCrashDuringCompactionLeavesOrphans(t *testing.T) {
	image, want := crashImageAt(t, foldTempWritten)
	files, err := listDir(image)
	if err != nil || len(files.temps) != 1 {
		t.Fatalf("image holds temps %v (%v), want one temp checkpoint", files.temps, err)
	}
	d, err := Open(image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expectAll(t, d, want)
	if st := d.Stats(); st.WALRecordsRecovered != 3 {
		t.Fatalf("replayed %d records, want the 3 unfolded ones", st.WALRecordsRecovered)
	}
	onlyLiveFiles(t, image)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	expectAll(t, d, want)
}

// TestCrashBetweenSSTableWriteAndManifest: a crash after the new
// checkpoint is renamed into place but before CURRENT is switched to it
// leaves a complete checkpoint CURRENT does not name. Recovery must use
// the checkpoint CURRENT names plus the log — never the orphan, even when
// its contents differ — and remove the orphan.
func TestCrashBetweenSSTableWriteAndManifest(t *testing.T) {
	image, want := crashImageAt(t, foldRenamed)
	ckNum, _, err := readCurrent(image)
	if err != nil {
		t.Fatal(err)
	}
	files, err := listDir(image)
	if err != nil || len(files.ckpts) != 2 {
		t.Fatalf("image holds checkpoints %v (%v), want old and new", files.ckpts, err)
	}
	orphan := files.ckpts[1]
	if orphan == ckNum {
		t.Fatalf("CURRENT already names the new checkpoint %d", orphan)
	}
	// Forge the orphan's contents: uncommitted data must not leak.
	writeCheckpointFile(t, image, orphan, [][2]string{{"zz-uncommitted", "ghost"}})
	d, err := Open(image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expectAll(t, d, want)
	onlyLiveFiles(t, image)
}

// TestCrashBeforeOldWALRemoval: a crash after CURRENT is switched but
// before the folded segments and the old checkpoint are unlinked leaves
// them on disk. Their contents are in the new checkpoint (or were
// superseded); recovery must NOT replay them — resurrecting overwritten
// values — and must remove them.
func TestCrashBeforeOldWALRemoval(t *testing.T) {
	image, want := crashImageAt(t, foldSwitched)
	ckNum, _, err := readCurrent(image)
	if err != nil {
		t.Fatal(err)
	}
	files, err := listDir(image)
	if err != nil {
		t.Fatal(err)
	}
	var stale []uint64
	for _, num := range files.wals {
		if num < ckNum {
			stale = append(stale, num)
		}
	}
	if len(stale) == 0 || len(files.ckpts) != 2 {
		t.Fatalf("image %+v with CURRENT %d: want folded segments and both checkpoints", files, ckNum)
	}
	// Make a folded segment hold values that must not come back.
	w, err := newWALWriter(walPath(image, stale[0]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendBatch([]kv.Op{
		{Kind: kv.OpPut, Key: []byte("b"), Value: []byte("resurrected")},
		{Kind: kv.OpPut, Key: []byte("ghost"), Value: []byte("x")},
	}, true); err != nil {
		t.Fatal(err)
	}
	w.close()

	d, err := Open(image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	expectAll(t, d, want)
	if st := d.Stats(); st.WALTornTails != 0 || st.WALRecordsRecovered != 0 {
		t.Fatalf("folded segments replayed: %+v", st)
	}
	onlyLiveFiles(t, image)
}

// TestCrashTornWALAfterFlush: the full sequence — folded history in the
// checkpoint, then fresh commits in the live log, then a crash that tears
// the final append. Recovery must keep the checkpoint AND the durable log
// prefix, discard only the torn record, and classify it as a torn tail
// (expected crash shape), not corruption.
func TestCrashTornWALAfterFlush(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("folded"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("walled"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	path := activeWAL(d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear: append a record and chop it mid-payload.
	w, err := newWALWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendBatch([]kv.Op{
		{Kind: kv.OpPut, Key: []byte("torn"), Value: []byte("never-acked")},
	}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	expectAll(t, d2, map[string]string{"folded": "1", "walled": "2"})
	st := d2.Stats()
	if st.WALTornTails != 1 {
		t.Fatalf("torn tail not classified: %d", st.WALTornTails)
	}
	if st.WALRecordsRecovered != 1 {
		t.Fatalf("durable log prefix: %d records replayed, want 1", st.WALRecordsRecovered)
	}
}

// TestBlockCorruptionSurfacesOnRead: a flipped bit inside a checkpoint
// data block must turn reads of that block into errCorrupt — never a
// silently wrong or missing value — while the DB still opens (the damage
// is found lazily, exactly like a real latent sector error). Damage to
// the index or footer fails the Open instead.
func TestBlockCorruptionSurfacesOnRead(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	path := ckptPath(dir, d.ckpt.num)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the first data block (offset 2 is inside it).
	data := append([]byte(nil), good...)
	data[2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d2.Get([]byte("key")); !errors.Is(err, errCorrupt) {
		t.Fatalf("Get of corrupt block = %v, want errCorrupt", err)
	}
	if err := d2.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, errCorrupt) {
		t.Fatalf("Scan of corrupt block = %v, want errCorrupt", err)
	}
	// A scan that would stop early on a live-log key past the damage must
	// still report it, not return a prefix with the block's keys missing.
	if err := d2.Put([]byte("log-only"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Scan(nil, nil, func(_, _ []byte) bool { return false }); !errors.Is(err, errCorrupt) {
		t.Fatalf("early-stopped Scan over a corrupt block = %v, want errCorrupt", err)
	}
	d2.Close()

	// Flip a byte of the index (just before the footer): Open fails.
	data = append(data[:0], good...)
	data[len(data)-ckptFooterLen-5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, errCorrupt) {
		t.Fatalf("Open over a corrupt index = %v, want errCorrupt", err)
	}
}

// TestVerifyDirCleanAndCorrupt: the offline verifier passes a healthy
// directory (reporting its shape) and pinpoints a corrupted checkpoint
// block, orphaned files, mid-WAL corruption and a bad CURRENT without
// ever opening the DB.
func TestVerifyDirCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{SyncWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := d.Put([]byte{byte('a' + i%26), byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("in-wal"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	ckNum := d.ckpt.num
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("clean dir failed verify: %v", err)
	}
	if rep.Checkpoint != ckNum || rep.Blocks == 0 || rep.Entries != 50 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep.WALs != 1 || rep.WALRecords != 1 {
		t.Fatalf("live WAL records not counted: %+v", rep)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("phantom orphans: %v", rep.Orphans)
	}

	// Orphans are reported, not failed.
	for _, name := range []string{ckptName(777), ckptName(778) + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphans) != 2 {
		t.Fatalf("orphans not reported: %+v", rep)
	}
	os.Remove(filepath.Join(dir, ckptName(777)))
	os.Remove(filepath.Join(dir, ckptName(778)+tmpSuffix))

	// Corrupt one byte of the first data block: verify must fail and name
	// the block.
	path := ckptPath(dir, ckNum)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("verify of corrupt block = %v, want errCorrupt naming block 0", err)
	}
	data[1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Mid-WAL corruption (records after the damage) must fail strictly.
	wals, err := WALFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	wal := wals[len(wals)-1]
	wdata, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWALWriter(wal)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendBatch([]kv.Op{{Kind: kv.OpPut, Key: []byte("after"), Value: []byte("y")}}, true); err != nil {
		t.Fatal(err)
	}
	w.close()
	wdata2, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	wdata2[len(wdata)-1] ^= 0xff // damage the previously-last record's payload
	if err := os.WriteFile(wal, wdata2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, errCorrupt) {
		t.Fatalf("verify of mid-corrupt WAL = %v, want errCorrupt", err)
	}
	if err := os.WriteFile(wal, wdata, 0o644); err != nil {
		t.Fatal(err)
	}

	// A CURRENT that does not parse fails verification.
	if err := os.WriteFile(filepath.Join(dir, currentName), []byte("checkpoint x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(dir); !errors.Is(err, errCorrupt) {
		t.Fatalf("verify with a bad CURRENT = %v, want errCorrupt", err)
	}
}
