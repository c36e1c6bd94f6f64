package txn

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"sistream/internal/kv"
	"sistream/internal/mvcc"
)

// Transactional secondary indexes. An index maps a derived key (the
// "index key", computed by a user extractor from a row's key and value)
// to the rows carrying it. Maintenance happens in the SAME write path as
// the table itself: the one commit pipeline (commitBatch, for single- and
// cross-group commits) derives index mutations from every admitted row
// write and applies them in phase 4 at the row's own commit timestamp,
// before LastCTS publishes the commit — so an index is never behind its
// table, under all three concurrency-control protocols, and aborted
// transactions never touch it (only admitted requests are processed).
//
// An index keeps no versions of its own. Per index key it holds a
// candidate set: row key -> exit timestamp, 0 while the row's latest
// version carries the index key, otherwise the commit timestamp at which
// the row left it. A lookup at rts takes the candidates with exit 0 or
// exit > rts and rechecks each against the row's own version at rts,
// emitting it only when the extractor yields the looked-up key. The
// recheck makes a lookup sound; it is complete because a row carrying
// the key at rts entered the set before rts was published, and its exit
// only moves forward (a re-entry resets it to 0). An index read at a
// Snapshot's CTS therefore returns exactly the rows a filtered full-table
// scan at that CTS would.
//
// Candidates are not persisted: an index is derived state, rebuilt from
// the rows by CreateIndex in every process that declares it.

// indexShards spreads the candidate sets over independently locked maps,
// mirroring the table's key shards. Must be a power of two.
const indexShards = 16

// IndexKeyFunc derives the index key of one row. ok=false excludes the
// row from the index (a partial index). The function must be pure — it
// is re-evaluated on the commit path for both the old and the new row
// image, and by every lookup to recheck a candidate — and must not
// retain key or value.
type IndexKeyFunc func(key string, value []byte) (ikey string, ok bool)

// Index is a transactionally maintained secondary index over one table
// (Table.CreateIndex). All methods are safe for concurrent use; lookups
// hold a shard's read lock only while collecting candidates, and read
// the rows wait-free (RCU row versions).
type Index struct {
	name    string
	tbl     *Table
	extract IndexKeyFunc

	shards [indexShards]indexShard

	gcCursor atomic.Uint32

	puts, deletes, lookups, hits atomic.Uint64
}

// indexShard is one latch-striped slice of the candidate sets:
// ikey -> row key -> exit timestamp (0 while the row carries ikey). The
// row key is the committing write set's key string, so a candidate costs
// one map slot and no allocation of its own. Sweeps delete candidates
// whose exit no snapshot can still read (exit <= horizon).
type indexShard struct {
	mu sync.RWMutex
	m  map[string]map[string]Timestamp
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Table returns the indexed table.
func (ix *Index) Table() *Table { return ix.tbl }

// IndexStats are an index's lifetime counters (Index.Stats).
type IndexStats struct {
	// Puts counts rows entering an index key (exit set to 0), Deletes
	// exits recorded — by the commit path and the backfill.
	Puts, Deletes uint64
	// Lookups counts Lookup calls; Hits the rows they returned.
	Lookups, Hits uint64
}

// Stats returns the index's counters.
func (ix *Index) Stats() IndexStats {
	return IndexStats{
		Puts:    ix.puts.Load(),
		Deletes: ix.deletes.Load(),
		Lookups: ix.lookups.Load(),
		Hits:    ix.hits.Load(),
	}
}

func (ix *Index) shard(ikey string) *indexShard {
	var h uint32 = 2166136261
	for i := 0; i < len(ikey); i++ {
		h ^= uint32(ikey[i])
		h *= 16777619
	}
	return &ix.shards[h&(indexShards-1)]
}

// install records that row pkey entered ikey (exit 0) or left it at
// commit timestamp exit. Called under the owning group's commit latch
// (backfill holds it too), so a candidate's exit only moves forward.
func (ix *Index) install(ikey, pkey string, exit Timestamp) {
	if exit == 0 {
		ix.puts.Add(1)
	} else {
		ix.deletes.Add(1)
	}
	sh := ix.shard(ikey)
	sh.mu.Lock()
	post := sh.m[ikey]
	if post == nil {
		post = make(map[string]Timestamp)
		sh.m[ikey] = post
	}
	post[pkey] = exit
	sh.mu.Unlock()
}

// rowPrefix is the base-store range where earlier builds persisted this
// index's posting rows; CreateIndex clears it so such a store sheds them.
func (ix *Index) rowPrefix() []byte {
	return []byte("i/" + string(ix.tbl.id) + "/" + ix.name + "/")
}

// Lookup calls fn for every row whose index key equals ikey at snapshot
// rts, with the row's value at that same snapshot, until fn returns
// false. Each candidate still in ikey at rts is rechecked against its
// row version at rts, so the result equals a full-table scan at rts
// filtered by the same extractor. Iteration order is unspecified.
func (ix *Index) Lookup(rts Timestamp, ikey string, fn func(key string, value []byte) bool) {
	ix.lookups.Add(1)
	sh := ix.shard(ikey)
	sh.mu.RLock()
	post := sh.m[ikey]
	cands := make([]string, 0, len(post))
	for k, exit := range post {
		if exit == 0 || exit > rts {
			cands = append(cands, k)
		}
	}
	sh.mu.RUnlock()
	for _, k := range cands {
		v, ok := ix.tbl.readVersion(k, rts)
		if !ok {
			continue
		}
		if got, ok := ix.extract(k, v); !ok || got != ikey {
			continue
		}
		ix.hits.Add(1)
		if !fn(k, v) {
			return
		}
	}
}

// ResidentPostings counts the candidates currently held, exited ones
// not yet reclaimed included — the index-side analogue of
// Table.ResidentVersions (diagnostic).
func (ix *Index) ResidentPostings() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, post := range sh.m {
			n += len(post)
		}
		sh.mu.RUnlock()
	}
	return n
}

// gc deletes the candidates whose exit is at or below horizon — no
// snapshot can read the row in that index key any more — in count index
// shards from the cursor (wrapping), returning how many it deleted.
// Invoked by the table sweeps so index residency is bounded by the same
// policy as row residency. A re-entry resets the exit under the same
// lock, so the check and the delete are atomic.
func (ix *Index) gc(horizon Timestamp, count int) int {
	if count < 1 {
		count = 1
	}
	if count > indexShards {
		count = indexShards
	}
	from := int(ix.gcCursor.Load()) % indexShards
	ix.gcCursor.Store(uint32((from + count) % indexShards))
	n := 0
	for j := 0; j < count; j++ {
		sh := &ix.shards[(from+j)%indexShards]
		sh.mu.Lock()
		for ikey, post := range sh.m {
			for k, exit := range post {
				if exit != 0 && exit <= horizon {
					delete(post, k)
					n++
				}
			}
			if len(post) == 0 {
				delete(sh.m, ikey)
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// indexDelta is one candidate mutation derived from an admitted row
// write, applied at the writing transaction's commit timestamp: the row
// enters ikey, or leaves it when del is set.
type indexDelta struct {
	ix   *Index
	ikey string
	pkey string
	del  bool
}

// indexDeltasFor appends the candidate mutations implied by writing key
// with newVal (or deleting it when del is set), given the row's
// pre-image: oldVal/hadOld describe the latest value the key holds
// before this write installs (earlier same-batch admissions included).
func indexDeltasFor(dst []indexDelta, ixs []*Index, key string, newVal []byte, del bool, oldVal []byte, hadOld bool) []indexDelta {
	for _, ix := range ixs {
		var (
			oldIK, newIK string
			oldOK, newOK bool
		)
		if hadOld {
			oldIK, oldOK = ix.extract(key, oldVal)
		}
		if !del {
			newIK, newOK = ix.extract(key, newVal)
		}
		if oldOK && newOK && oldIK == newIK {
			continue // index key unchanged: nothing to maintain
		}
		if oldOK {
			dst = append(dst, indexDelta{ix: ix, ikey: oldIK, pkey: key, del: true})
		}
		if newOK {
			dst = append(dst, indexDelta{ix: ix, ikey: newIK, pkey: key, del: false})
		}
	}
	return dst
}

// indexSet returns the table's registered indexes (nil when none) — one
// atomic load on the commit path.
func (t *Table) indexSet() []*Index {
	p := t.indexes.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Index returns the named index, nil when absent.
func (t *Table) Index(name string) *Index {
	for _, ix := range t.indexSet() {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// Indexes returns the table's secondary indexes (do not modify).
func (t *Table) Indexes() []*Index { return t.indexSet() }

// CreateIndex registers a secondary index named name over the table,
// derived by extract, and backfills it from the committed state at the
// group's current LastCTS. The table must already belong to a group
// (CreateIndex after CreateGroup — recovery has run, so the backfill
// sees recovered rows too). Creation quiesces the group's commit
// pipeline for the duration of the backfill; from the first commit after
// it returns, the index is maintained transactionally in the write path.
//
// The backfill walks every retained version of each row, so snapshots
// pinned before the index existed read it consistently too. Posting rows
// that earlier builds persisted under the index's prefix are deleted
// from the base store.
func (t *Table) CreateIndex(name string, extract IndexKeyFunc) (*Index, error) {
	if name == "" || extract == nil {
		return nil, fmt.Errorf("txn: CreateIndex needs a name and an extractor")
	}
	if strings.ContainsAny(name, "/\x00") {
		// The stale-row clear covers "i/<table>/<name>/": a '/' in the
		// name would overlap another index's range.
		return nil, fmt.Errorf("txn: index name %q must not contain '/' or NUL", name)
	}
	g := t.group
	if g == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownState, t.id)
	}
	// Quiesce the commit pipeline: no transaction can commit into the
	// table while the backfill walks it, so the index is exact at LastCTS
	// and every later commit maintains it incrementally.
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	if t.Index(name) != nil {
		return nil, fmt.Errorf("txn: table %q already has index %q", t.id, name)
	}
	ix := &Index{name: name, tbl: t, extract: extract}
	for i := range ix.shards {
		ix.shards[i].m = make(map[string]map[string]Timestamp)
	}

	// Delete stale posting rows (same sync gate as commits: only where
	// the backend has one).
	batch := kv.NewBatch(0)
	prefix := ix.rowPrefix()
	if err := t.store.Scan(prefix, prefixEnd(prefix), func(k, _ []byte) bool {
		batch.Delete(k)
		return true
	}); err != nil {
		return nil, fmt.Errorf("txn: index %q: clear postings: %w", name, err)
	}
	if batch.Len() > 0 {
		sync := t.opts.SyncCommits && t.caps.SupportsSync
		if err := t.store.Apply(batch, sync); err != nil {
			return nil, fmt.Errorf("txn: index %q: clear postings: %w", name, err)
		}
	}

	// Versions ascend by cts, so the last version carrying an index key
	// leaves the key's exit: its dts, or 0 when it is the live version. A
	// base-image row is one live version.
	var rows shardRows
	for i := range t.shards {
		sh := &t.shards[i]
		sh.collect(true, &rows)
		for _, r := range rows.objs {
			r.o.Versions(func(_, dts Timestamp, v []byte) {
				if ikey, ok := extract(r.key, v); ok {
					ix.install(ikey, r.key, dts)
				}
			})
		}
		for _, off := range rows.base {
			k, v, _ := sh.base.entry(off)
			if ikey, ok := extract(k, v); ok {
				ix.install(ikey, k, 0)
			}
		}
	}

	// Publish (copy-on-write): the NEXT leader tenure sees the index and
	// maintains it from the first post-backfill commit on.
	var next []*Index
	if cur := t.indexes.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, ix)
	t.indexes.Store(&next)
	return ix, nil
}

// rowImage tracks a key's pending post-write image within one commit
// batch: later same-batch admissions must compute their index deltas
// against it, not against the installed version store (those earlier
// writes install only in phase 4).
type rowImage struct {
	val []byte
	del bool
}

// latestImage returns the latest installed live value of key in tbl —
// the index pre-image when no earlier same-batch admission rewrote the
// key. o, when non-nil, is the key's already-resolved version object.
func latestImage(tbl *Table, o *mvcc.Object, key string) ([]byte, bool) {
	if o == nil {
		return tbl.readVersion(key, mvcc.Infinity)
	}
	return o.Read(mvcc.Infinity)
}
