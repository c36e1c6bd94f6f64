package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"sistream/internal/kv"
)

func testDB(t *testing.T, opts Options) *DB {
	t.Helper()
	d, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// smallFoldBytes replaces the 4 MiB fold minimum in tests that want
// frequent background folds with little data.
const smallFoldBytes = 4 << 10

// openSmall opens dir with the small fold threshold.
func openSmall(t *testing.T, dir string) *DB {
	t.Helper()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.foldMin = smallFoldBytes
	return d
}

// smallDB is a test DB in a fresh directory with the small threshold.
func smallDB(t *testing.T) *DB {
	t.Helper()
	d := openSmall(t, t.TempDir())
	t.Cleanup(func() { d.Close() })
	return d
}

// waitFolds waits for the background fold in flight, if any.
func waitFolds(d *DB) {
	d.writeMu.Lock()
	d.waitFold()
	d.writeMu.Unlock()
}

// activeWAL returns the path of the segment Apply appends to.
func activeWAL(d *DB) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return walPath(d.dir, d.segs[len(d.segs)-1].num)
}

func TestBasicCRUD(t *testing.T) {
	d := testDB(t, Options{})
	if _, ok, err := d.Get([]byte("a")); err != nil || ok {
		t.Fatalf("empty get: %v %v", ok, err)
	}
	if err := d.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := d.Get([]byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := d.Put([]byte("a"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := d.Get([]byte("a")); string(v) != "2" {
		t.Fatalf("overwrite: %q", v)
	}
	if err := d.Delete([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := d.Get([]byte("a")); ok {
		t.Fatal("delete did not take")
	}
}

func TestGetAfterFlush(t *testing.T) {
	d := smallDB(t)
	for i := 0; i < 500; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Flushes == 0 || st.LiveLogBytes != 0 {
		t.Fatalf("expected the log folded away: %+v", st)
	}
	for i := 0; i < 500; i++ {
		v, ok, err := d.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d after flush: %q %v %v", i, v, ok, err)
		}
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	d := testDB(t, Options{})
	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete([]byte("k")); err != nil {
		t.Fatal(err)
	}
	// A tombstone in the live log must shadow the checkpoint's value.
	if _, ok, _ := d.Get([]byte("k")); ok {
		t.Fatal("tombstone did not shadow checkpoint value")
	}
	if err := d.Flush(); err != nil { // the fold drops key and tombstone
		t.Fatal(err)
	}
	if _, ok, _ := d.Get([]byte("k")); ok {
		t.Fatal("folded tombstone resurrected the value")
	}
	if st := d.Stats(); st.Flushes != 2 {
		t.Fatalf("folds = %d, want 2", st.Flushes)
	}
}

func TestReopenRecoversWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(2)
	b.Put([]byte("x"), []byte("1"))
	b.Put([]byte("y"), []byte("2"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no fold. The WAL holds the data.
	d.wal.f.Close()

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, kvp := range [][2]string{{"x", "1"}, {"y", "2"}} {
		v, ok, err := d2.Get([]byte(kvp[0]))
		if err != nil || !ok || string(v) != kvp[1] {
			t.Fatalf("recovered %s: %q %v %v", kvp[0], v, ok, err)
		}
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("post-flush"), []byte("wal-only")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	n, err := kv.Len(d2)
	if err != nil || n != 101 {
		t.Fatalf("after reopen: %d keys, %v", n, err)
	}
	if v, ok, _ := d2.Get([]byte("post-flush")); !ok || string(v) != "wal-only" {
		t.Fatalf("wal-only key lost: %q %v", v, ok)
	}
}

func TestTornWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	walFile := activeWAL(d)
	d.wal.f.Sync()
	d.wal.f.Close()

	// Truncate mid-record to simulate a crash during the last append.
	st, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walFile, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First 9 records must be intact; the torn 10th is discarded.
	for i := 0; i < 9; i++ {
		if _, ok, _ := d2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("durable record k%d lost", i)
		}
	}
	if _, ok, _ := d2.Get([]byte("k9")); ok {
		t.Fatal("torn record resurrected")
	}
	// Open cut the torn record off, so appends after it stay readable
	// and the next recovery sees a clean log.
	if err := d2.Put([]byte("after"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, ok, _ := d3.Get([]byte("after")); !ok {
		t.Fatal("append after a torn tail lost")
	}
	if st := d3.Stats(); st.WALTornTails != 0 || st.WALRecordsRecovered != 10 {
		t.Fatalf("second recovery: %+v, want 10 records and no torn tail", st)
	}
}

func TestCorruptWALTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	walFile := activeWAL(d)
	d.wal.f.Sync()
	d.wal.f.Close()
	// Flip a payload byte in the final record.
	data, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(walFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for i := 0; i < 4; i++ {
		if _, ok, _ := d2.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("record k%d before corruption lost", i)
		}
	}
	if _, ok, _ := d2.Get([]byte("k4")); ok {
		t.Fatal("corrupt record resurrected")
	}
}

// TestFoldRetiresSealedSegments: background folds keep the live log
// bounded by the threshold, and a final Flush leaves exactly one
// checkpoint and one empty segment on disk.
func TestFoldRetiresSealedSegments(t *testing.T) {
	d := smallDB(t)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", rng.Intn(2000)))
		if err := d.Put(k, bytes.Repeat([]byte{byte(i)}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	waitFolds(d)
	st := d.Stats()
	if st.Flushes < 2 {
		t.Fatalf("expected background folds, got %d", st.Flushes)
	}
	// One fold at a time: the log outgrows the threshold by at most what
	// arrives while a fold runs, and every fold retires its segments.
	if st.LiveSegments > 2 {
		t.Fatalf("%d live segments after folds", st.LiveSegments)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.LiveSegments != 1 || st.LiveLogBytes != 0 || st.Compactions != 0 {
		t.Fatalf("after flush: %+v", st)
	}
	files, err := listDir(d.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files.ckpts) != 1 || len(files.wals) != 1 || len(files.temps) != 0 {
		t.Fatalf("files after flush: %+v", files)
	}
	n, err := kv.Len(d)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > 2000 {
		t.Fatalf("unexpected key count %d", n)
	}
}

// TestScanMergedAcrossLevels: a scan merges the two levels — the
// checkpoint and the live log — with the log's newer values and
// tombstones shadowing the checkpoint.
func TestScanMergedAcrossLevels(t *testing.T) {
	d := testDB(t, Options{})
	// Three generations of the same key range: two folded, one live.
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 300; i++ {
			if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("g%d", gen))); err != nil {
				t.Fatal(err)
			}
		}
		if gen < 2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Delete([]byte("k0000")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put([]byte("k0003a"), []byte("g2")); err != nil { // log-only key
		t.Fatal(err)
	}
	var keys []string
	err := d.Scan([]byte("k0000"), []byte("k0010"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		if string(v) != "g2" {
			t.Errorf("key %q: stale value %q", k, v)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[k0001 k0002 k0003 k0003a k0004 k0005 k0006 k0007 k0008 k0009]"
	if fmt.Sprint(keys) != want {
		t.Fatalf("scan returned %v, want %s", keys, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	d := testDB(t, Options{})
	for i := 0; i < 20; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, stop := range []int{5, 15} { // inside the checkpoint, inside the log
		n := 0
		if err := d.Scan(nil, nil, func(_, _ []byte) bool { n++; return n < stop }); err != nil {
			t.Fatal(err)
		}
		if n != stop {
			t.Fatalf("stop at %d visited %d", stop, n)
		}
	}
}

func TestClosedErrors(t *testing.T) {
	d, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != kv.ErrClosed {
		t.Fatalf("double close: %v", err)
	}
	if _, _, err := d.Get([]byte("k")); err != kv.ErrClosed {
		t.Fatalf("get: %v", err)
	}
	if err := d.Put([]byte("k"), nil); err != kv.ErrClosed {
		t.Fatalf("put: %v", err)
	}
	if err := d.Scan(nil, nil, nil); err != kv.ErrClosed {
		t.Fatalf("scan: %v", err)
	}
	if err := d.Sync(); err != kv.ErrClosed {
		t.Fatalf("sync: %v", err)
	}
	if err := d.Flush(); err != kv.ErrClosed {
		t.Fatalf("flush: %v", err)
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	d := smallDB(t)
	for i := 0; i < 1000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := []byte(fmt.Sprintf("k%04d", rng.Intn(1000)))
				if _, ok, err := d.Get(k); err != nil || !ok {
					t.Errorf("get %s: %v %v", k, ok, err)
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("k%04d", i%1000))
		if err := d.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if d.Stats().Flushes == 0 {
		t.Fatal("no fold ran beside the readers")
	}
}

// checkModel compares the DB with the model through every read path:
// Get of every model key and of absent keys, a full scan (contents and
// order), a bounded scan and an early stop.
func checkModel(d *DB, model map[string]string) error {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got, ok, err := d.Get([]byte(k))
		if err != nil || !ok || string(got) != model[k] {
			return fmt.Errorf("Get(%q) = %q/%v/%v, want %q", k, got, ok, err, model[k])
		}
	}
	for _, k := range []string{"", "absent", "key-", "key-999"} {
		if _, ok, err := d.Get([]byte(k)); err != nil || ok != (model[k] != "") {
			return fmt.Errorf("Get(%q) = %v/%v, want %v", k, ok, err, model[k] != "")
		}
	}
	scan := func(start, end []byte, limit int) ([]string, error) {
		var got []string
		err := d.Scan(start, end, func(k, v []byte) bool {
			if model[string(k)] != string(v) {
				got = append(got, "BAD:"+string(k))
			}
			got = append(got, string(k))
			return limit == 0 || len(got) < limit
		})
		return got, err
	}
	got, err := scan(nil, nil, 0)
	if err != nil || fmt.Sprint(got) != fmt.Sprint(keys) {
		return fmt.Errorf("full scan = %v/%v, want %v", got, err, keys)
	}
	lo, hi := "key-010", "key-040"
	var want []string
	for _, k := range keys {
		if k >= lo && k < hi {
			want = append(want, k)
		}
	}
	if got, err = scan([]byte(lo), []byte(hi), 0); err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("scan [%s,%s) = %v/%v, want %v", lo, hi, got, err, want)
	}
	if len(keys) >= 3 {
		if got, err = scan(nil, nil, 3); err != nil || fmt.Sprint(got) != fmt.Sprint(keys[:3]) {
			return fmt.Errorf("early stop = %v/%v, want %v", got, err, keys[:3])
		}
	}
	return nil
}

// randomOps applies n random puts and deletes to d and the model.
func randomOps(d *DB, model map[string]string, rng *rand.Rand, n int) error {
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", rng.Intn(60))
		if rng.Intn(3) == 0 {
			delete(model, k)
			if err := d.Delete([]byte(k)); err != nil {
				return err
			}
			continue
		}
		v := fmt.Sprintf("v-%d", rng.Int())
		model[k] = v
		if err := d.Put([]byte(k), []byte(v)); err != nil {
			return err
		}
	}
	return nil
}

// TestPropertyDBMatchesModel runs random operation sequences against the
// DB and an in-memory model and checks every read path before the first
// fold, after a fold forced by Flush, with writes on top of the
// checkpoint, and after reopen. The "threshold" case crosses the real
// 4 MiB fold threshold instead of calling Flush.
func TestPropertyDBMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		d, err := Open(dir, Options{})
		if err != nil {
			t.Log(err)
			return false
		}
		defer func() { d.Close() }()
		model := map[string]string{}
		step := func(name string, folds int, do func() error) bool {
			if err := do(); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if err := checkModel(d, model); err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if got := d.Stats().Flushes; got != folds {
				t.Logf("seed %d %s: %d folds, want %d", seed, name, got, folds)
				return false
			}
			return true
		}
		reopen := func() error {
			if err := d.Close(); err != nil {
				return err
			}
			d, err = Open(dir, Options{})
			return err
		}
		return step("before fold", 0, func() error { return randomOps(d, model, rng, 200) }) &&
			step("after flush", 1, d.Flush) &&
			step("log over checkpoint", 1, func() error { return randomOps(d, model, rng, 200) }) &&
			step("reopen", 0, reopen) &&
			step("flush after reopen", 1, d.Flush) &&
			step("reopen after flush", 0, reopen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}

	t.Run("threshold", func(t *testing.T) {
		dir := t.TempDir()
		d, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { d.Close() }()
		rng := rand.New(rand.NewSource(7))
		model := map[string]string{}
		if err := randomOps(d, model, rng, 100); err != nil {
			t.Fatal(err)
		}
		if err := checkModel(d, model); err != nil {
			t.Fatal("before fold:", err)
		}
		val := bytes.Repeat([]byte("x"), 1000)
		for i := 0; d.Stats().Flushes == 0; i++ {
			if i > 10_000 {
				t.Fatal("no fold after 10 MB of log")
			}
			k := fmt.Sprintf("key-%03d", rng.Intn(60))
			v := fmt.Sprintf("%d-%s", i, val)
			model[k] = v
			if err := d.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			waitFolds(d)
		}
		if err := randomOps(d, model, rng, 100); err != nil {
			t.Fatal(err)
		}
		if err := checkModel(d, model); err != nil {
			t.Fatal("after threshold fold:", err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if d, err = Open(dir, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := checkModel(d, model); err != nil {
			t.Fatal("after reopen:", err)
		}
	})
}

// writeCheckpointFile writes pairs (ascending) as checkpoint num in dir.
func writeCheckpointFile(t *testing.T, dir string, num uint64, pairs [][2]string) {
	t.Helper()
	f, err := os.Create(ckptPath(dir, num))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw := newCkptWriter(f)
	for _, p := range pairs {
		if err := cw.add([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.finish(); err != nil {
		t.Fatal(err)
	}
}

// TestSSTableRoundTrip: the checkpoint's sorted table serves every key by
// index seek, iterates in order and seeks to the first key >= start.
func TestSSTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const n = 1000
	var pairs [][2]string
	for i := 0; i < n; i++ {
		pairs = append(pairs, [2]string{fmt.Sprintf("key-%05d", i), fmt.Sprintf("value-%d", i)})
	}
	writeCheckpointFile(t, dir, 1, pairs)
	c, err := openCheckpoint(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if c.count != n || len(c.index) < 2 {
		t.Fatalf("count=%d blocks=%d, want %d entries in several blocks", c.count, len(c.index), n)
	}
	for _, p := range pairs {
		v, found, err := c.get([]byte(p[0]))
		if err != nil || !found || string(v) != p[1] {
			t.Fatalf("get %q: %q %v %v", p[0], v, found, err)
		}
	}
	for _, absent := range []string{"a", "key-000005", "zzz"} {
		if _, found, err := c.get([]byte(absent)); found || err != nil {
			t.Fatalf("get %q: found=%v err=%v", absent, found, err)
		}
	}
	it := c.iter(nil, nil)
	total := 0
	for it.next() {
		if string(it.key) != pairs[total][0] || string(it.val) != pairs[total][1] {
			t.Fatalf("entry %d = %q/%q", total, it.key, it.val)
		}
		total++
	}
	if it.err != nil || total != n {
		t.Fatalf("iterated %d entries (%v), want %d", total, it.err, n)
	}
	for start, want := range map[string]string{"key-00500": "key-00500", "key-005001": "key-00501", "": "key-00000"} {
		it := c.iter([]byte(start), nil)
		if !it.next() || string(it.key) != want {
			t.Fatalf("seek %q landed on %q, want %q", start, it.key, want)
		}
	}
	if it := c.iter([]byte("zzz"), nil); it.next() {
		t.Fatal("seek past end should exhaust")
	}
}

func TestSSTableRejectsOutOfOrder(t *testing.T) {
	cw := newCkptWriter(&bytes.Buffer{})
	if err := cw.add([]byte("b"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := cw.add([]byte("a"), []byte("2")); err == nil {
		t.Fatal("expected out-of-order error")
	}
	cw = newCkptWriter(&bytes.Buffer{})
	cw.add([]byte("a"), nil)
	if err := cw.add([]byte("a"), nil); err == nil {
		t.Fatal("expected duplicate-key error")
	}
}

func TestSSTableCorruptFooter(t *testing.T) {
	dir := t.TempDir()
	writeCheckpointFile(t, dir, 1, [][2]string{{"a", "1"}})
	path := ckptPath(dir, 1)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the magic, then the entry count (covered by the footer CRC).
	for _, off := range []int{len(good) - 1, len(good) - ckptFooterLen + 16} {
		data := bytes.Clone(good)
		data[off] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openCheckpoint(dir, 1); err == nil {
			t.Fatalf("footer byte %d corrupted: expected an error", off)
		}
	}
}

func TestWALBatchCodec(t *testing.T) {
	ops := []kv.Op{
		{Kind: kv.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Kind: kv.OpDelete, Key: []byte("b")},
		{Kind: kv.OpPut, Key: []byte{}, Value: []byte{}},
	}
	payload := encodeBatchPayload(nil, ops)
	got, err := decodeBatchPayload(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops", len(got))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || !bytes.Equal(got[i].Key, ops[i].Key) || !bytes.Equal(got[i].Value, ops[i].Value) {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, got[i], ops[i])
		}
	}
	if _, err := decodeBatchPayload(nil, []byte{0xff}); err == nil {
		t.Fatal("expected decode error on garbage")
	}
}

func TestApplyBatchAtomicityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := kv.NewBatch(3)
	b.Put([]byte("s1/k"), []byte("v1"))
	b.Put([]byte("s2/k"), []byte("v2"))
	b.Delete([]byte("never-existed"))
	if err := d.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	d.wal.f.Close() // crash
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	v1, ok1, _ := d2.Get([]byte("s1/k"))
	v2, ok2, _ := d2.Get([]byte("s2/k"))
	if !ok1 || !ok2 || string(v1) != "v1" || string(v2) != "v2" {
		t.Fatalf("batch not atomic across recovery: %q/%v %q/%v", v1, ok1, v2, ok2)
	}
}

func TestStatsShape(t *testing.T) {
	d := smallDB(t)
	for i := 0; i < 2000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("x"), 20)); err != nil {
			t.Fatal(err)
		}
	}
	waitFolds(d)
	st := d.Stats()
	if st.Flushes == 0 || st.CheckpointBytes == 0 || st.LiveSegments == 0 || st.Compactions != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	fi, err := os.Stat(filepath.Join(d.dir, ckptName(d.ckpt.num)))
	if err != nil || fi.Size() != st.CheckpointBytes {
		t.Fatalf("checkpoint file %v, stats say %d bytes", err, st.CheckpointBytes)
	}
}

func BenchmarkPutAsync(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	key := make([]byte, 8)
	val := bytes.Repeat([]byte("v"), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			key[j] = byte(i >> (8 * j))
		}
		if err := d.Put(key, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyBatch is the engine's commit shape: 73-op batches of
// 12-byte keys and 20-byte values, no sync.
func BenchmarkApplyBatch(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	batch := kv.NewBatch(73)
	val := bytes.Repeat([]byte("v"), 20)
	for j := 0; j < 73; j++ {
		batch.Put([]byte(fmt.Sprintf("s/t/k%07d", j)), val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Apply(batch, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplySync(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	val := bytes.Repeat([]byte("v"), 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := kv.NewBatch(10)
		for j := 0; j < 10; j++ {
			batch.Put([]byte(fmt.Sprintf("key-%07d", (i*10+j)%100000)), val)
		}
		if err := d.Apply(batch, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetHot(b *testing.B) {
	d, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 10000; i++ {
		if err := d.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte("v"), 20)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Get([]byte(fmt.Sprintf("key-%05d", i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}
