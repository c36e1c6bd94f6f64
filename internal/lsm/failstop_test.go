package lsm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sistream/internal/kv"
)

// TestWALWriterStickyError: after a failed write or sync the WAL writer
// must keep returning the original error — the file's durable contents
// are unknown, so reporting success later would be a lie.
func TestWALWriterStickyError(t *testing.T) {
	dir := t.TempDir()
	w, err := newWALWriter(filepath.Join(dir, "000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the fd so the next write fails like a dying disk.
	if err := w.f.Close(); err != nil {
		t.Fatal(err)
	}
	_, first := w.appendBatch(nil, true)
	if first == nil {
		t.Fatal("append on closed fd succeeded")
	}
	// Sticky: subsequent appends and syncs return the SAME error without
	// touching the file.
	if _, err := w.appendBatch(nil, false); !errors.Is(err, first) && err.Error() != first.Error() {
		t.Fatalf("second append = %v, want the latched %v", err, first)
	}
	if err := w.sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("sync after failure = %v, want the latched %v", err, first)
	}
}

// TestWALWriterStickySyncError: a failed fsync (not just a failed write)
// must latch too — the fsyncgate shape, where the write itself succeeded
// into the page cache.
func TestWALWriterStickySyncError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "000001.wal")
	w, err := newWALWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.appendBatch(nil, false); err != nil {
		t.Fatal(err)
	}
	// Swap the fd for a read-only one: writes hit EBADF, and so does
	// fsync on some platforms; either way the first failure must latch.
	w.f.Close()
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	w.f = ro
	_, first := w.appendBatch(nil, true)
	if first == nil {
		t.Fatal("append through read-only fd succeeded")
	}
	if err := w.sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("sync after failure = %v, want latched %v", err, first)
	}
	if w.err == nil {
		t.Fatal("writer error not latched")
	}
}

// TestDBFailStopOnWALError: a WAL failure poisons the DB — writes fail
// fast with a wrapped ErrDBFailed, reads keep serving.
func TestDBFailStopOnWALError(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the WAL fd underneath the DB: the next write must fail and
	// enter the sticky failed state.
	d.writeMu.Lock()
	d.wal.f.Close()
	d.writeMu.Unlock()

	first := d.Put([]byte("k2"), []byte("v2"))
	if first == nil {
		t.Fatal("write on dead WAL succeeded")
	}
	if errors.Is(first, ErrDBFailed) {
		t.Fatalf("first error should be the raw cause, got wrapped: %v", first)
	}
	if err := d.Err(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("DB.Err() = %v, want ErrDBFailed", err)
	}

	// Subsequent writes fail fast with the wrapped sticky error.
	if err := d.Put([]byte("k3"), []byte("v3")); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("write on failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Sync on failed DB = %v, want ErrDBFailed", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrDBFailed) {
		t.Fatalf("Flush on failed DB = %v, want ErrDBFailed", err)
	}

	// Graceful degradation: reads still serve the pre-failure state.
	if v, ok, err := d.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("read on failed DB: %q %v %v", v, ok, err)
	}
	n := 0
	if err := d.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); err != nil {
		t.Fatalf("scan on failed DB: %v", err)
	}
	if n != 1 {
		t.Fatalf("scan saw %d keys, want 1", n)
	}
	_ = d.Stats()

	// The failed write must not be visible (it never reached the WAL).
	if _, ok, _ := d.Get([]byte("k2")); ok {
		t.Fatal("failed write visible to reads")
	}
}

// TestDBFailStopViaFaultStore: the kv.Fault wrapper drives the same
// fail-stop path from outside — an injected sticky sync error on the
// inner store makes Apply fail; the DB is the inner store here, so this
// exercises Fault over lsm (the tentpole requires both backends).
func TestDBFailStopViaFaultStore(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := kv.NewFault(d)
	defer f.Close()

	b := kv.NewBatch(1)
	b.Put([]byte("a"), []byte("1"))
	if err := f.Apply(b, true); err != nil {
		t.Fatal(err)
	}
	badDisk := errors.New("EIO")
	f.FailSyncAt(1, badDisk)
	b2 := kv.NewBatch(1)
	b2.Put([]byte("b"), []byte("2"))
	if err := f.Apply(b2, true); !errors.Is(err, badDisk) {
		t.Fatalf("apply = %v, want injected EIO", err)
	}
	// Crash + reopen: only the synced prefix survives in the LSM.
	re, err := f.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := re.Get([]byte("b")); ok {
		t.Fatal("unsynced write survived the crash")
	}
	if v, ok, _ := re.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("synced write lost: %q %v", v, ok)
	}
}

// TestDBFailStopOnFoldError: a fold that fails on I/O — here the temp
// checkpoint cannot be created — latches ErrDBFailed, whether the fold
// runs inside Flush or in the background. Writes are refused from then
// on; reads keep serving every acknowledged write from the old
// checkpoint and the log, which the failed fold left in place, and a
// reopen recovers all of it.
func TestDBFailStopOnFoldError(t *testing.T) {
	for _, background := range []bool{false, true} {
		t.Run(fmt.Sprintf("background=%t", background), func(t *testing.T) {
			dir := t.TempDir()
			d := openSmall(t, dir)
			defer d.Close()
			want := map[string]string{}
			put := func(i int) error {
				k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i)
				err := d.Put([]byte(k), []byte(v))
				if err == nil {
					want[k] = v
				}
				return err
			}
			for i := 0; i < 10; i++ {
				if err := put(i); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			// The next fold's temp checkpoint path is taken by a directory.
			d.writeMu.Lock()
			blocked := ckptPath(dir, d.nextNum) + tmpSuffix
			d.writeMu.Unlock()
			if err := os.Mkdir(blocked, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(blocked, "x"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if background {
				// Write past the threshold; the fold fails beside the
				// writer and the first write after it is refused.
				var err error
				for i := 10; err == nil; i++ {
					if i > 10_000 {
						t.Fatal("background fold never failed")
					}
					err = put(i)
					waitFolds(d)
				}
				if !errors.Is(err, ErrDBFailed) {
					t.Fatalf("write after failed fold = %v, want ErrDBFailed", err)
				}
			} else {
				if err := put(10); err != nil {
					t.Fatal(err)
				}
				err := d.Flush()
				if err == nil || errors.Is(err, ErrDBFailed) {
					t.Fatalf("Flush = %v, want the raw fold error", err)
				}
			}
			if err := d.Err(); !errors.Is(err, ErrDBFailed) {
				t.Fatalf("Err() = %v, want ErrDBFailed", err)
			}
			if err := d.Put([]byte("late"), []byte("x")); !errors.Is(err, ErrDBFailed) {
				t.Fatalf("Put after fold failure = %v, want ErrDBFailed", err)
			}
			if err := d.Flush(); !errors.Is(err, ErrDBFailed) {
				t.Fatalf("Flush after fold failure = %v, want ErrDBFailed", err)
			}
			expectAll(t, d, want)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.RemoveAll(blocked); err != nil {
				t.Fatal(err)
			}
			d2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			expectAll(t, d2, want)
		})
	}
}

// TestFoldWaitsOnCloseAndFlush: Close and Flush wait for a background
// fold in flight, and no goroutine outlives Close.
func TestFoldWaitsOnCloseAndFlush(t *testing.T) {
	for _, op := range []string{"Close", "Flush"} {
		t.Run(op, func(t *testing.T) {
			before := runtime.NumGoroutine()
			d := openSmall(t, t.TempDir())
			started, release := make(chan struct{}), make(chan struct{})
			d.foldHook = func(s foldStage) error {
				if s == foldTempWritten {
					close(started)
					<-release
				}
				return nil
			}
			for i := 0; ; i++ {
				if err := d.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("value")); err != nil {
					t.Fatal(err)
				}
				d.writeMu.Lock()
				folding := d.foldDone != nil
				d.writeMu.Unlock()
				if folding {
					break
				}
			}
			<-started
			done := make(chan error, 1)
			go func() {
				if op == "Close" {
					done <- d.Close()
				} else {
					done <- d.Flush()
				}
			}()
			select {
			case err := <-done:
				t.Fatalf("%s returned (%v) with a fold in flight", op, err)
			case <-time.After(50 * time.Millisecond):
			}
			d.foldHook = nil
			close(release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			// The fold sealed the only segment with data, so Flush has
			// nothing left to fold after waiting for it.
			if st := d.Stats(); st.Flushes != 1 {
				t.Fatalf("folds after %s = %d", op, st.Flushes)
			}
			d.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
