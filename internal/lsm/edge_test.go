package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"sistream/internal/kv"
)

func TestEmptyAndLargeValues(t *testing.T) {
	d := testDB(t, Options{})
	if err := d.Put([]byte("empty"), []byte{}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Get([]byte("empty"))
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %v %v %v", v, ok, err)
	}
	big := bytes.Repeat([]byte("x"), 1<<20) // 1 MiB value, larger than a block
	if err := d.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(got, big) {
		t.Fatalf("big value corrupted: len=%d ok=%v err=%v", len(got), ok, err)
	}
	if v, ok, err := d.Get([]byte("empty")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value after fold: %v %v %v", v, ok, err)
	}
}

func TestBinaryKeys(t *testing.T) {
	d := smallDB(t)
	keys := [][]byte{
		{},
		{0},
		{0, 0},
		{0, 1},
		{0xff},
		{0xff, 0xff},
		[]byte("mixed\x00key"),
	}
	for i, k := range keys {
		if err := d.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		for i, k := range keys {
			v, ok, err := d.Get(k)
			if err != nil || !ok || v[0] != byte(i) {
				t.Fatalf("%s: binary key %x: %v %v %v", when, k, v, ok, err)
			}
		}
		var got [][]byte
		if err := d.Scan(nil, nil, func(k, _ []byte) bool {
			got = append(got, bytes.Clone(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("%s: scanned %d keys, want %d", when, len(got), len(keys))
		}
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("%s: binary keys out of order: %x then %x", when, got[i-1], got[i])
			}
		}
	}
	check("live log")
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	check("checkpoint")
}

// TestReopenCyclesLeaveOneCheckpoint: open/write/close cycles with
// background folds leave one CURRENT, at most one checkpoint, no temp
// files and no folded segments, and lose nothing.
func TestReopenCyclesLeaveOneCheckpoint(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 4; round++ {
		d := openSmall(t, dir)
		for i := 0; i < 300; i++ {
			if err := d.Put([]byte(fmt.Sprintf("r%d-k%03d", round, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := listDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		ckNum, ok, err := readCurrent(dir)
		if err != nil || !ok {
			t.Fatalf("round %d: CURRENT %v %v", round, ok, err)
		}
		if len(files.ckpts) != 1 || files.ckpts[0] != ckNum || len(files.temps) != 0 {
			t.Fatalf("round %d: files %+v with CURRENT %d", round, files, ckNum)
		}
		for _, num := range files.wals {
			if num <= ckNum {
				t.Fatalf("round %d: folded segment %d left behind", round, num)
			}
		}
	}
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	n, err := kv.Len(d)
	if err != nil || n != 1200 {
		t.Fatalf("final count %d, %v", n, err)
	}
}

func TestCurrentFileCorruption(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("k"), []byte("v"))
	d.Close()
	current := filepath.Join(dir, currentName)
	if err := os.WriteFile(current, []byte("GARBAGE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt CURRENT accepted")
	}
	// A store whose CURRENT is gone must not be reinitialized over its
	// log: that would drop a checkpoint silently.
	if err := os.Remove(current); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("store files without CURRENT accepted")
	}
}

func TestOrphanFilesCleanedOnOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Put([]byte("k"), []byte("v"))
	d.Flush()
	ckNum := d.ckpt.num
	d.Close()
	// Leftovers of interrupted folds: a temp checkpoint, a temp CURRENT,
	// a checkpoint CURRENT does not name and a segment it has folded.
	orphans := []string{ckptName(999999) + tmpSuffix, currentName + tmpSuffix, ckptName(999998), walName(ckNum - 1)}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "NOTES"), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived open", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "NOTES")); err != nil {
		t.Fatal("open removed a file that is not the store's")
	}
	if v, ok, _ := d2.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatal("cleanup destroyed live data")
	}
}

// TestPropertyIteratorSeek: checkpoint iterator seek agrees with a
// sorted reference for random key sets and probes.
func TestPropertyIteratorSeek(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		n := rng.Intn(2000) + 1
		seen := map[string]bool{}
		var keys []string
		for len(keys) < n {
			k := fmt.Sprintf("key-%05d", rng.Intn(50000))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		pairs := make([][2]string, len(keys))
		for i, k := range keys {
			pairs[i] = [2]string{k, "v"}
		}
		writeCheckpointFile(t, dir, 1, pairs)
		c, err := openCheckpoint(dir, 1)
		if err != nil {
			t.Log(err)
			return false
		}
		defer c.close()
		for probe := 0; probe < 30; probe++ {
			target := fmt.Sprintf("key-%05d", rng.Intn(52000))
			it := c.iter([]byte(target), nil)
			i := sort.SearchStrings(keys, target)
			if i == len(keys) {
				if it.next() {
					t.Logf("seek(%q) found %q, want exhausted", target, it.key)
					return false
				}
				continue
			}
			if !it.next() || string(it.key) != keys[i] {
				t.Logf("seek(%q) -> %q, want %q", target, it.key, keys[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteHeavyCompaction: the fold drops tombstones together with
// the values they delete, so a fully deleted store folds to an empty
// checkpoint.
func TestDeleteHeavyCompaction(t *testing.T) {
	d := testDB(t, Options{})
	for i := 0; i < 2000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), bytes.Repeat([]byte("v"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := d.Delete([]byte(fmt.Sprintf("k%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := kv.Len(d)
	if err != nil || n != 0 {
		t.Fatalf("store not empty after delete+fold: %d, %v", n, err)
	}
	if st := d.Stats(); st.CheckpointBytes > 64 || st.LiveLogBytes != 0 {
		t.Fatalf("tombstones not reclaimed: %+v", st)
	}
}

func TestWALSyncDurabilityBoundary(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unsynced write followed by synced write: both must be in the WAL
	// (sync flushes everything before it).
	if err := d.Put([]byte("unsynced"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(1)
	b.Put([]byte("synced"), []byte("2"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	d.wal.f.Close() // crash
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, k := range []string{"unsynced", "synced"} {
		if _, ok, _ := d2.Get([]byte(k)); !ok {
			t.Fatalf("%s lost despite preceding fsync", k)
		}
	}
}
