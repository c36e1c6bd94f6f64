package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sistream/internal/kv"
)

// ErrDBFailed is the sticky fail-stop error of a failed DB: after any
// WAL, fold, rename, CURRENT or sync error the durable state is
// unknowable, so every subsequent write returns an error wrapping this
// sentinel (and the original cause) while reads keep serving — graceful
// degradation to read-only until the process restarts and recovery
// rebuilds from what actually reached disk.
var ErrDBFailed = errors.New("lsm: db failed (fail-stop)")

// dbFailure records the first fatal error; wrapped is precomputed so the
// hot-path health check stays allocation-free.
type dbFailure struct {
	cause   error
	wrapped error
}

// Options configures a DB. The zero value is usable.
type Options struct {
	// SyncWrites makes single-op Put/Delete durable before returning.
	// Batched Apply takes an explicit per-call sync flag, matching the
	// paper's setup where transactional commits are the synchronous unit.
	SyncWrites bool
}

// minFoldBytes is the least unfolded log that triggers a fold; above it
// the threshold is the checkpoint's size, so folding stays linear in the
// data written.
const minFoldBytes = 4 << 20

// segment is one live log segment: records not yet folded into the
// checkpoint.
type segment struct {
	num  uint64
	size int64 // bytes on disk that belong to the log
}

// foldStage names the points of a fold between its durable steps.
type foldStage int

const (
	foldTempWritten foldStage = iota // temp checkpoint synced, not renamed
	foldRenamed                      // checkpoint renamed, CURRENT not switched
	foldSwitched                     // CURRENT switched, folded files remain
)

// foldJob is the input of one fold: the checkpoint it replaces and the
// sealed segments it absorbs. num names the new checkpoint; it is above
// every segment of the job and below the active segment.
type foldJob struct {
	num  uint64
	base *checkpoint
	segs []segment
}

// DB is a persistent key-value store implementing kv.Store: a write-ahead
// log plus one checkpoint folded from it in the background. See the
// package comment for the on-disk layout.
type DB struct {
	dir  string
	opts Options

	// writeMu serializes the write path: Apply, Sync, sealing a segment,
	// Flush and Close. A background fold does not take it.
	writeMu sync.Mutex
	wal     *walWriter // the active segment's writer
	nextNum uint64
	// unfolded counts the log bytes not claimed by a fold; reaching
	// max(foldMin, checkpoint size) seals the active segment for one.
	unfolded int64
	foldMin  int64
	// foldDone is closed when the in-flight fold ends; nil when none has
	// run since the last wait.
	foldDone chan struct{}
	// foldHook, when set (tests only), runs at each fold stage; an error
	// fails the fold there.
	foldHook func(foldStage) error

	// mu guards the read state below. Readers hold it shared for a whole
	// Get or Scan; Apply and a fold's install take it exclusively.
	mu     sync.RWMutex
	ckpt   *checkpoint // nil until the first fold
	segs   []segment   // live segments, oldest first; the last is active
	view   *liveView   // decoded live log; built by a read, dropped by Apply
	viewMu sync.Mutex  // serializes building view under a shared mu
	closed bool
	folds  int

	// failure, when non-nil, is the sticky fail-stop record: a write-path
	// error of unknowable durable effect happened and the DB refuses all
	// further writes (see ErrDBFailed). Set once via CAS; never cleared.
	failure atomic.Pointer[dbFailure]

	// WAL recovery counters, set once at Open: durable records replayed
	// and torn final records (partial appends from a crash) discarded.
	walRecovered int
	walTornTails int
}

var _ kv.Store = (*DB)(nil)

// Open opens (creating if necessary) a DB in dir. It loads the checkpoint
// CURRENT names, replays the live segments strictly (a torn final record
// is discarded, mid-segment corruption fails the Open) and removes the
// files an interrupted fold left behind.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	ckNum, haveCurrent, err := readCurrent(dir)
	if err != nil {
		return nil, err
	}
	if !haveCurrent {
		if len(files.wals)+len(files.ckpts) > 0 {
			return nil, fmt.Errorf("lsm: %s holds store files but no CURRENT", dir)
		}
		if err := writeCurrent(dir, 0); err != nil {
			return nil, err
		}
	}
	d := &DB{dir: dir, opts: opts, foldMin: minFoldBytes, nextNum: max(files.maxNum, ckNum) + 1}
	if ckNum > 0 {
		if d.ckpt, err = openCheckpoint(dir, ckNum); err != nil {
			return nil, err
		}
	}
	var last walReplayStats // of the newest live segment
	for _, num := range files.wals {
		if num <= ckNum {
			continue
		}
		data, err := os.ReadFile(walPath(dir, num))
		if err == nil {
			last, err = replaySegment(data, nil)
		}
		d.walRecovered += last.records
		if last.tornTail {
			d.walTornTails++
		}
		if err != nil {
			d.closeCkpt()
			return nil, fmt.Errorf("lsm: replay wal %06d: %w", num, err)
		}
		d.segs = append(d.segs, segment{num: num, size: int64(len(data))})
		d.unfolded += int64(len(data))
	}
	if err := d.removeObsolete(files, ckNum); err != nil {
		d.closeCkpt()
		return nil, err
	}
	// Appends continue in the newest segment, cut back to its last whole
	// record if a crash tore it; a fresh store starts segment nextNum.
	if n := len(d.segs); n > 0 && last.tornTail {
		seg := &d.segs[n-1]
		if err := os.Truncate(walPath(dir, seg.num), last.valid); err != nil {
			d.closeCkpt()
			return nil, err
		}
		d.unfolded -= seg.size - last.valid
		seg.size = last.valid
	}
	created := len(d.segs) == 0
	if created {
		d.segs = append(d.segs, segment{num: d.nextNum})
		d.nextNum++
	}
	if d.wal, err = newWALWriter(walPath(dir, d.segs[len(d.segs)-1].num)); err == nil && created {
		err = syncDir(dir)
	}
	if err != nil {
		if d.wal != nil {
			d.wal.close()
		}
		d.closeCkpt()
		return nil, err
	}
	return d, nil
}

// removeObsolete deletes what an interrupted fold leaves behind: temp
// files, checkpoints CURRENT does not name and segments it has folded.
func (d *DB) removeObsolete(files dirFiles, ckNum uint64) error {
	for _, name := range files.temps {
		if err := removeFile(d.dir, name); err != nil {
			return err
		}
	}
	for _, num := range files.ckpts {
		if num != ckNum {
			if err := removeFile(d.dir, ckptName(num)); err != nil {
				return err
			}
		}
	}
	for _, num := range files.wals {
		if num <= ckNum {
			if err := removeFile(d.dir, walName(num)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *DB) closeCkpt() {
	if d.ckpt != nil {
		d.ckpt.close()
	}
}

// Err reports the DB's sticky fail-stop state: nil while healthy,
// otherwise an error wrapping both ErrDBFailed and the original cause.
// Once non-nil it never clears; reads keep serving, writes are refused.
func (d *DB) Err() error {
	if f := d.failure.Load(); f != nil {
		return f.wrapped
	}
	return nil
}

// fail latches err as the DB's fail-stop cause (first error wins) and
// returns it unchanged, so the failing operation surfaces the real error
// while every later write gets the wrapped sticky one.
func (d *DB) fail(err error) error {
	d.failure.CompareAndSwap(nil, &dbFailure{
		cause:   err,
		wrapped: fmt.Errorf("%w: %w", ErrDBFailed, err),
	})
	return err
}

// checkWrite gates the write path: closed beats failed, failed beats
// everything else.
func (d *DB) checkWrite() error {
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return kv.ErrClosed
	}
	return d.Err()
}

// Get implements kv.Store. The returned value is a copy.
func (d *DB) Get(key []byte) ([]byte, bool, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return nil, false, kv.ErrClosed
	}
	v, err := d.liveViewLocked()
	if err != nil {
		return nil, false, err
	}
	if e, ok := v.find(key); ok {
		if e.del {
			return nil, false, nil
		}
		return bytes.Clone(e.value), true, nil
	}
	if d.ckpt == nil {
		return nil, false, nil
	}
	return d.ckpt.get(key)
}

// Put implements kv.Store.
func (d *DB) Put(key, value []byte) error {
	b := kv.NewBatch(1)
	b.Put(key, value)
	return d.Apply(b, d.opts.SyncWrites)
}

// Delete implements kv.Store.
func (d *DB) Delete(key []byte) error {
	b := kv.NewBatch(1)
	b.Delete(key)
	return d.Apply(b, d.opts.SyncWrites)
}

// Apply implements kv.Store: the batch becomes one WAL record, durable on
// return when sync is true. When the unfolded log reaches the fold
// threshold and no fold is running, the active segment is sealed and a
// background fold started.
func (d *DB) Apply(b *kv.Batch, sync bool) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.checkWrite(); err != nil {
		return err
	}
	n, err := d.wal.appendBatch(b.Ops(), sync)
	if err != nil {
		// Fail-stop: the segment's durable contents are now unknown (the
		// writer's sticky error, see walWriter); no later write may
		// report success on top of it.
		return d.fail(err)
	}
	d.mu.Lock()
	d.segs[len(d.segs)-1].size += int64(n)
	d.view = nil
	threshold := d.foldMin
	if d.ckpt != nil {
		threshold = max(threshold, d.ckpt.size)
	}
	d.mu.Unlock()
	d.unfolded += int64(n)
	if d.unfolded < threshold || d.folding() {
		return nil
	}
	job, err := d.seal()
	if err != nil {
		return d.fail(err)
	}
	done := make(chan struct{})
	d.foldDone = done
	go func() {
		defer close(done)
		d.fold(job)
	}()
	return nil
}

// folding reports whether a fold is in flight. Caller holds writeMu.
func (d *DB) folding() bool {
	if d.foldDone == nil {
		return false
	}
	select {
	case <-d.foldDone:
		d.foldDone = nil
		return false
	default:
		return true
	}
}

// waitFold blocks until the in-flight fold, if any, has ended. Caller
// holds writeMu.
func (d *DB) waitFold() {
	if d.foldDone != nil {
		<-d.foldDone
		d.foldDone = nil
	}
}

// seal syncs and closes the active segment, opens the next one and
// returns the fold job for every segment before it. Syncing first keeps
// what survives a crash a prefix of the log; syncing the directory makes
// the new segment's name as durable as the commits synced into it.
// Caller holds writeMu, and no fold is in flight.
func (d *DB) seal() (*foldJob, error) {
	if err := d.wal.sync(); err != nil {
		return nil, err
	}
	num, active := d.nextNum, d.nextNum+1
	w, err := newWALWriter(walPath(d.dir, active))
	if err == nil {
		if err = syncDir(d.dir); err != nil {
			w.close()
		}
	}
	if err != nil {
		return nil, err
	}
	d.nextNum += 2
	d.wal.close() // synced above: a close error loses nothing
	d.wal = w
	d.mu.Lock()
	job := &foldJob{num: num, base: d.ckpt, segs: slices.Clone(d.segs)}
	d.segs = append(d.segs, segment{num: active})
	d.mu.Unlock()
	d.unfolded = 0
	return job, nil
}

// fold merges the job's base checkpoint with its segments (last writer
// wins, tombstones dropped) into a new checkpoint, installs it by fsync,
// rename and a CURRENT switch, and only then deletes the folded files.
// Any error latches the DB's fail-stop state; the old checkpoint and the
// segments stay live, so reads keep serving.
func (d *DB) fold(job *foldJob) error {
	if err := d.writeCheckpoint(job); err != nil {
		// Best effort: Open deletes a temp checkpoint that survives this.
		os.Remove(ckptPath(d.dir, job.num) + tmpSuffix)
		return d.fail(err)
	}
	if err := d.installCheckpoint(job); err != nil {
		return d.fail(err)
	}
	return nil
}

// writeCheckpoint writes and syncs the job's temp checkpoint.
func (d *DB) writeCheckpoint(job *foldJob) error {
	v, err := buildView(d.dir, job.segs)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(ckptPath(d.dir, job.num)+tmpSuffix, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("lsm: fold: %w", err)
	}
	cw := newCkptWriter(f)
	var base *ckptIter
	if job.base != nil {
		base = job.base.iter(nil, nil)
	}
	err = mergeScan(base, v.entries, nil, cw.add)
	if err == nil {
		err = cw.finish()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("lsm: fold: write checkpoint %06d: %w", job.num, err)
	}
	return d.hook(foldTempWritten)
}

// installCheckpoint renames the temp checkpoint into place, switches
// CURRENT to it, swaps it in for readers and deletes the folded files.
func (d *DB) installCheckpoint(job *foldJob) error {
	path := ckptPath(d.dir, job.num)
	if err := os.Rename(path+tmpSuffix, path); err != nil {
		return fmt.Errorf("lsm: fold: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	if err := d.hook(foldRenamed); err != nil {
		return err
	}
	if err := writeCurrent(d.dir, job.num); err != nil {
		return err
	}
	if err := d.hook(foldSwitched); err != nil {
		return err
	}
	ck, err := openCheckpoint(d.dir, job.num)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.ckpt = ck
	d.segs = d.segs[len(job.segs):]
	d.view = nil
	d.folds++
	d.mu.Unlock()
	if job.base != nil {
		job.base.close()
		if err := removeFile(d.dir, ckptName(job.base.num)); err != nil {
			return err
		}
	}
	for _, s := range job.segs {
		if err := removeFile(d.dir, walName(s.num)); err != nil {
			return err
		}
	}
	return nil
}

func (d *DB) hook(stage foldStage) error {
	if d.foldHook == nil {
		return nil
	}
	return d.foldHook(stage)
}

// Flush folds the whole log into the checkpoint synchronously, after
// waiting for a fold in flight. With nothing unfolded it does nothing.
func (d *DB) Flush() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.waitFold()
	if err := d.checkWrite(); err != nil {
		return err
	}
	d.mu.RLock()
	empty := len(d.segs) == 1 && d.segs[0].size == 0
	d.mu.RUnlock()
	if empty {
		return nil
	}
	job, err := d.seal()
	if err != nil {
		return d.fail(err)
	}
	return d.fold(job)
}

// Scan implements kv.Store. It merges the checkpoint with the live log
// and yields live (non-tombstone) entries in ascending key order.
//
// The key and value slices passed to fn are valid only until fn returns:
// checkpoint pairs alias a block buffer that the next block overwrites.
// Callers copy what they keep. The scan holds the read latch for its
// whole duration, so fn must not call back into the DB. Transactional
// reads are served by the MVCC layer above; base-table scans happen
// during recovery and tooling only.
func (d *DB) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return kv.ErrClosed
	}
	v, err := d.liveViewLocked()
	if err != nil {
		return err
	}
	var ck *ckptIter
	if d.ckpt != nil {
		ck = d.ckpt.iter(start, nil)
	}
	ents := v.entries[v.search(start):]
	return mergeScan(ck, ents, end, func(k, v []byte) error {
		if !fn(k, v) {
			return errStopScan
		}
		return nil
	})
}

// errStopScan ends a merge early without an error.
var errStopScan = errors.New("lsm: scan stopped")

// mergeScan walks the checkpoint iterator (nil for none) and the sorted
// view entries together in key order up to end (nil for no bound): a view
// entry shadows the checkpoint pair with its key, tombstones are skipped.
// emit returning errStopScan ends the walk cleanly. A checkpoint error
// ends it at once, so no pair past the damage is emitted.
func mergeScan(ck *ckptIter, ents []viewEntry, end []byte, emit func(k, v []byte) error) error {
	nextC := func() (bool, error) {
		if ck == nil {
			return false, nil
		}
		ok := ck.next()
		return ok, ck.err
	}
	haveC, err := nextC()
	for err == nil && (haveC || len(ents) > 0) {
		var k, v []byte
		del, advC, advV := false, false, false
		if len(ents) > 0 && (!haveC || bytes.Compare(ents[0].key, ck.key) <= 0) {
			k, v, del, advV = ents[0].key, ents[0].value, ents[0].del, true
			advC = haveC && bytes.Equal(k, ck.key)
		} else {
			k, v, advC = ck.key, ck.val, true
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			break
		}
		if !del {
			if err := emit(k, v); err != nil {
				if err == errStopScan {
					return nil
				}
				return err
			}
		}
		if advV {
			ents = ents[1:]
		}
		if advC {
			haveC, err = nextC()
		}
	}
	return err
}

// Sync implements kv.Store: it fsyncs the active segment. A sync failure
// is fail-stop (see ErrDBFailed) — the kernel may drop dirty pages after
// reporting it, so retrying could silently lose acknowledged writes.
func (d *DB) Sync() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	if err := d.checkWrite(); err != nil {
		return err
	}
	if err := d.wal.sync(); err != nil {
		return d.fail(err)
	}
	return nil
}

// Close implements kv.Store. It waits for a fold in flight but does not
// fold: the live log is replayed by the next Open, which is exactly the
// crash-consistency path and keeps Close cheap.
func (d *DB) Close() error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	d.waitFold()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return kv.ErrClosed
	}
	d.closed = true
	d.view = nil
	d.closeCkpt()
	return d.wal.close()
}

// Stats reports operational counters for tooling and tests.
type Stats struct {
	// Flushes counts completed folds (background and Flush).
	Flushes int
	// Compactions is always 0: the fold is the only merge. It is kept for
	// tools that report it.
	Compactions int
	// CheckpointBytes is the size of the live checkpoint file.
	CheckpointBytes int64
	// LiveLogBytes and LiveSegments describe the log not yet folded.
	LiveLogBytes int64
	LiveSegments int
	// WALRecordsRecovered counts the durable WAL records replayed by this
	// Open; WALTornTails counts segments whose final record was torn (a
	// crash mid-append — the partial record was never acknowledged
	// durable and is discarded, which is the expected crash-recovery
	// shape, surfaced here so operators can tell it apart from silence).
	// Mid-segment corruption is NOT a counter: it fails the Open (see
	// lsmtool wal-dump --skip-corrupt for salvage).
	WALRecordsRecovered int
	WALTornTails        int
}

// Stats returns a snapshot of internal counters.
func (d *DB) Stats() Stats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	s := Stats{
		Flushes:             d.folds,
		LiveSegments:        len(d.segs),
		WALRecordsRecovered: d.walRecovered,
		WALTornTails:        d.walTornTails,
	}
	if d.ckpt != nil {
		s.CheckpointBytes = d.ckpt.size
	}
	for _, seg := range d.segs {
		s.LiveLogBytes += seg.size
	}
	return s
}

// viewEntry is the newest operation on one key in the live log.
type viewEntry struct {
	key, value []byte
	del        bool
}

// liveView is the live log decoded into one sorted entry per key. Its
// entries alias the segment bytes it read.
type liveView struct {
	entries []viewEntry
}

// liveViewLocked returns the view of the live segments, decoding it if
// the last Apply dropped it. Caller holds mu shared or exclusive.
func (d *DB) liveViewLocked() (*liveView, error) {
	d.viewMu.Lock()
	defer d.viewMu.Unlock()
	if d.view == nil {
		v, err := buildView(d.dir, d.segs)
		if err != nil {
			return nil, err
		}
		d.view = v
	}
	return d.view, nil
}

// buildView decodes segs in order into a liveView: entries sorted by key,
// the last operation on each key winning.
func buildView(dir string, segs []segment) (*liveView, error) {
	var ents []viewEntry
	// The log rewrites hot keys many times over; keeping only the newest
	// operation per key while decoding sorts each key once (on a Zipf
	// log, several times faster than sorting every operation).
	last := map[string]int{}
	for _, s := range segs {
		if s.size == 0 {
			continue
		}
		data, err := readSegment(dir, s)
		if err != nil {
			return nil, err
		}
		if _, err := replaySegment(data, func(ops []kv.Op) error {
			for _, op := range ops {
				e := viewEntry{key: op.Key, value: op.Value, del: op.Kind == kv.OpDelete}
				if i, ok := last[string(op.Key)]; ok {
					ents[i] = e
					continue
				}
				last[string(op.Key)] = len(ents)
				ents = append(ents, e)
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("lsm: read wal %06d: %w", s.num, err)
		}
	}
	slices.SortFunc(ents, func(a, b viewEntry) int { return bytes.Compare(a.key, b.key) })
	return &liveView{entries: ents}, nil
}

// readSegment reads the first s.size bytes of a segment: an append past
// them may be in progress.
func readSegment(dir string, s segment) ([]byte, error) {
	f, err := os.Open(walPath(dir, s.num))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, s.size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, fmt.Errorf("lsm: read wal %06d: %w", s.num, err)
	}
	return data, nil
}

// search returns the index of the first entry with key >= start.
func (v *liveView) search(start []byte) int {
	if start == nil {
		return 0
	}
	return sort.Search(len(v.entries), func(i int) bool { return bytes.Compare(v.entries[i].key, start) >= 0 })
}

// find returns the entry for key, if the live log has one.
func (v *liveView) find(key []byte) (viewEntry, bool) {
	if i := v.search(key); i < len(v.entries) && bytes.Equal(v.entries[i].key, key) {
		return v.entries[i], true
	}
	return viewEntry{}, false
}
