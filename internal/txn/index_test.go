package txn

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sistream/internal/kv"
)

// valueBucket indexes rows by the first byte of their value; values
// starting with 'x' are excluded (a partial index), so rewrites can move
// rows in and out of the index, not just between buckets.
func valueBucket(_ string, v []byte) (string, bool) {
	if len(v) == 0 || v[0] == 'x' {
		return "", false
	}
	return string(v[:1]), true
}

// lookupAll collects an index lookup at rts into a key→value map.
func lookupAll(t *testing.T, ix *Index, rts Timestamp, ikey string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ix.Lookup(rts, ikey, func(k string, v []byte) bool {
		if _, dup := out[k]; dup {
			t.Fatalf("lookup(%q) returned key %q twice", ikey, k)
		}
		out[k] = string(v)
		return true
	})
	return out
}

// TestIndexCreateValidation pins the CreateIndex contract: arguments,
// group membership, duplicate names, and the accessors.
func TestIndexCreateValidation(t *testing.T) {
	e := newEnv(t)
	if _, err := e.t1.CreateIndex("", valueBucket); err == nil {
		t.Fatal("empty index name accepted")
	}
	if _, err := e.t1.CreateIndex("b", nil); err == nil {
		t.Fatal("nil extractor accepted")
	}

	// A table outside any group has no commit pipeline to hook into.
	loose := NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	orphan, err := loose.CreateTable("orphan", store, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.CreateIndex("b", valueBucket); err == nil {
		t.Fatal("CreateIndex on an ungrouped table accepted")
	}

	ix, err := e.t1.CreateIndex("b", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.t1.CreateIndex("b", valueBucket); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if got := e.t1.Index("b"); got != ix {
		t.Fatalf("Index(b) = %v, want the created index", got)
	}
	if e.t1.Index("nope") != nil {
		t.Fatal("Index(nope) returned an index")
	}
	if got := len(e.t1.Indexes()); got != 1 {
		t.Fatalf("Indexes() has %d entries, want 1", got)
	}
	if ix.Name() != "b" || ix.Table() != e.t1 {
		t.Fatalf("accessors: name=%q table=%v", ix.Name(), ix.Table())
	}
}

// TestIndexBackfillMaintenanceAndTimeTravel covers the index lifecycle:
// the backfill over pre-existing committed rows, commit-path maintenance
// (bucket moves, partial-index entry/exit, deletes), and MVCC reads —
// a lookup at an old snapshot returns the old buckets.
func TestIndexBackfillMaintenanceAndTimeTravel(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)

	// Committed before the index exists: the backfill must cover these,
	// excluding the partial-index 'x' row.
	write(t, p, e.t1, "k1", "a1", "k2", "a2", "k3", "b3", "k4", "x4")
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	cts0 := e.group.LastCTS()
	if got := lookupAll(t, ix, cts0, "a"); len(got) != 2 || got["k1"] != "a1" || got["k2"] != "a2" {
		t.Fatalf("backfilled bucket a = %v, want k1:a1 k2:a2", got)
	}
	if got := lookupAll(t, ix, cts0, "b"); len(got) != 1 || got["k3"] != "b3" {
		t.Fatalf("backfilled bucket b = %v, want k3:b3", got)
	}
	if got := lookupAll(t, ix, cts0, "x"); len(got) != 0 {
		t.Fatalf("partial index holds excluded rows: %v", got)
	}

	// Maintenance in one transaction: k1 moves a→b, k2 leaves the index
	// (→ 'x'), k4 enters it (x→'a'), k3 is deleted, k5 is born in 'a'.
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"k1", "b1"}, {"k2", "x2"}, {"k4", "a4"}, {"k5", "a5"}} {
		if err := p.Write(tx, e.t1, kv[0], []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Delete(tx, e.t1, "k3"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	cts1 := e.group.LastCTS()

	if got := lookupAll(t, ix, cts1, "a"); len(got) != 2 || got["k4"] != "a4" || got["k5"] != "a5" {
		t.Fatalf("bucket a after churn = %v, want k4:a4 k5:a5", got)
	}
	if got := lookupAll(t, ix, cts1, "b"); len(got) != 1 || got["k1"] != "b1" {
		t.Fatalf("bucket b after churn = %v, want k1:b1", got)
	}

	// Time travel: the same lookups at cts0 still see the old world.
	if got := lookupAll(t, ix, cts0, "a"); len(got) != 2 || got["k1"] != "a1" || got["k2"] != "a2" {
		t.Fatalf("bucket a at old snapshot = %v, want k1:a1 k2:a2", got)
	}
	if got := lookupAll(t, ix, cts0, "b"); len(got) != 1 || got["k3"] != "b3" {
		t.Fatalf("bucket b at old snapshot = %v, want k3:b3", got)
	}

	st := ix.Stats()
	if st.Puts == 0 || st.Deletes == 0 || st.Lookups == 0 || st.Hits == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// TestIndexBackfillServesOlderSnapshots: a snapshot pinned before
// CreateIndex reads the index as of its own timestamp. The backfill once
// indexed only each row's latest version, so rows rewritten out of a
// bucket or deleted after the pin vanished from that snapshot's lookups.
func TestIndexBackfillServesOlderSnapshots(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	write(t, p, e.t1, "k1", "a1", "k2", "a2", "k3", "b3")
	snap, err := e.ctx.Snapshot(e.t1)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// After the pin: k1 stays in bucket a with a new value, k2 is
	// deleted, k3 moves b→a.
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx, e.t1, "k1", []byte("a9")); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(tx, e.t1, "k2"); err != nil {
		t.Fatal(err)
	}
	if err := p.Write(tx, e.t1, "k3", []byte("a3")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		rts  Timestamp
		want map[string]map[string]string
	}{
		{snap.CTS(), map[string]map[string]string{"a": {"k1": "a1", "k2": "a2"}, "b": {"k3": "b3"}}},
		{e.group.LastCTS(), map[string]map[string]string{"a": {"k1": "a9", "k3": "a3"}, "b": {}}},
	} {
		for ikey, want := range c.want {
			if got := lookupAll(t, ix, c.rts, ikey); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Lookup(%q) at %d = %v, want %v", ikey, c.rts, got, want)
			}
		}
	}
	// The snapshot's own Lookup agrees with its filtered scan.
	scan := map[string]string{}
	for k, v := range scanAll(t, snap, e.t1) {
		if ik, ok := valueBucket(k, []byte(v)); ok && ik == "a" {
			scan[k] = v
		}
	}
	got := map[string]string{}
	if err := snap.Lookup(ix, "a", func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(scan) {
		t.Fatalf("snapshot Lookup(a) = %v, filtered scan = %v", got, scan)
	}
}

// TestIndexWritesNoPostingRows: an index is derived state and writes
// nothing to the base store — neither the backfill nor commits that move
// rows between buckets leave a key under "i/", across real lsm reopens.
// Posting rows that earlier builds persisted under the index's prefix
// are deleted by CreateIndex.
func TestIndexWritesNoPostingRows(t *testing.T) {
	bs := newBaseStore(t, "lsm")
	opts := TableOptions{SyncCommits: true}
	indexRows := func(store kv.Store) []string {
		t.Helper()
		prefix := []byte("i/")
		var out []string
		if err := store.Scan(prefix, prefixEnd(prefix), func(k, _ []byte) bool {
			out = append(out, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	store := bs.restart()
	_, p, tbls := recoverTables(t, store, opts, "state1")
	write(t, p, tbls[0], "k1", "a1", "k2", "b2", "k3", "x3")
	// Posting rows as earlier builds wrote them: "i/<table>/<index>/<ikey>\x00<pkey>".
	stale := kv.NewBatch(0)
	stale.Put([]byte("i/state1/bucket/a\x00k1"), nil)
	stale.Put([]byte("i/state1/bucket/b\x00k2"), nil)
	stale.Put([]byte("i/state1/bucket/z\x00gone"), nil)
	if err := store.Apply(stale, true); err != nil {
		t.Fatal(err)
	}

	store = bs.restart()
	_, p, tbls = recoverTables(t, store, opts, "state1")
	if got := indexRows(store); len(got) != 3 {
		t.Fatalf("seeded stale posting rows = %q, want 3", got)
	}
	ix, err := tbls[0].CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	if got := indexRows(store); len(got) != 0 {
		t.Fatalf("rows under i/ after CreateIndex = %q, want none", got)
	}
	// Churn: a bucket move, a partial-index exit and entry, a delete and
	// a birth.
	write(t, p, tbls[0], "k1", "b1", "k2", "x2", "k3", "a3", "k4", "a4")
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(tx, tbls[0], "k1"); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, p, tx)
	if got := indexRows(store); len(got) != 0 {
		t.Fatalf("rows under i/ after churn = %q, want none", got)
	}
	want := map[string]string{"k3": "a3", "k4": "a4"}
	if got := lookupAll(t, ix, tbls[0].group.LastCTS(), "a"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Lookup(a) after churn = %v, want %v", got, want)
	}

	// A reopened process rebuilds the index from the recovered rows alone.
	store = bs.restart()
	_, _, tbls = recoverTables(t, store, opts, "state1")
	if got := indexRows(store); len(got) != 0 {
		t.Fatalf("rows under i/ after reopen = %q, want none", got)
	}
	if ix, err = tbls[0].CreateIndex("bucket", valueBucket); err != nil {
		t.Fatal(err)
	}
	if got := lookupAll(t, ix, tbls[0].group.LastCTS(), "a"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Lookup(a) after reopen = %v, want %v", got, want)
	}
	if got := lookupAll(t, ix, tbls[0].group.LastCTS(), "b"); len(got) != 0 {
		t.Fatalf("Lookup(b) after reopen = %v, want none", got)
	}
}

// TestIndexGCBoundsResidentPostings churns one batch of keys across
// buckets under no pins and checks a sweep collapses posting residency
// to the live posting per key — dead postings are reclaimed by the same
// horizon policy as dead row versions.
func TestIndexGCBoundsResidentPostings(t *testing.T) {
	e := newEnv(t)
	p := NewSI(e.ctx)
	ix, err := e.t1.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}

	const keys, rewrites = 16, 12
	for r := 0; r < rewrites; r++ {
		for i := 0; i < keys; i++ {
			// Cycle every key through buckets a..d.
			write(t, p, e.t1, fmt.Sprintf("k%02d", i), fmt.Sprintf("%c%d", 'a'+r%4, r))
		}
	}
	// Sweep the whole table a few times: the cursor-based index sweep
	// covers all index shards across full-table GC passes. (Residency
	// before the sweep is not asserted — the commit path already
	// reclaims lazily on slot pressure.)
	for s := 0; s < 4; s++ {
		e.t1.GC()
	}
	if got := ix.ResidentPostings(); got > keys {
		t.Fatalf("resident postings %d after GC, want <= %d (one live posting per key)", got, keys)
	}

	// The surviving postings are exactly the live bucket contents.
	cts := e.group.LastCTS()
	last := fmt.Sprintf("%c%d", 'a'+(rewrites-1)%4, rewrites-1)
	if got := lookupAll(t, ix, cts, last[:1]); len(got) != keys {
		t.Fatalf("live bucket %q has %d keys after GC, want %d", last[:1], len(got), keys)
	}
}

// TestCrossGroupIndexMaintenance drives index maintenance through
// commits that span two topology groups: two indexed tables in separate
// groups over one store, written by the same transactions. At every
// commit an index lookup must equal a filtered scan on both tables, and a
// snapshot pinned before the commit must see neither table's change.
func TestCrossGroupIndexMaintenance(t *testing.T) {
	type op struct {
		tbl, key, val string // val == "" deletes
	}
	// Births, bucket moves (a→b, b→a), partial-index exit and re-entry,
	// same-bucket rewrites of an existing key, a key written twice in one
	// transaction, deletes, and a re-birth after a delete.
	script := [][]op{
		{{"a", "k1", "a1"}, {"a", "k2", "b2"}, {"a", "k3", "a3"}, {"b", "k1", "b1"}, {"b", "k2", "a2"}},
		{{"a", "k1", "b1"}, {"a", "k2", "x2"}, {"b", "k1", "a1"}, {"b", "k2", ""}},
		{{"a", "k3", "c0"}, {"a", "k3", "a33"}, {"b", "k1", "a11"}, {"b", "k3", "c3"}},
		{{"a", "k1", ""}, {"a", "k2", "c2"}, {"b", "k2", "b2"}, {"b", "k3", "b3"}},
	}
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		t.Run(proto, func(t *testing.T) {
			ctx := NewContext()
			store := kv.NewMem()
			t.Cleanup(func() { store.Close() })
			tbls := map[string]*Table{}
			ixs := map[string]*Index{}
			for _, name := range []string{"a", "b"} {
				tbl, err := ctx.CreateTable(StateID(name), store, TableOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ctx.CreateGroup(GroupID("g"+name), tbl); err != nil {
					t.Fatal(err)
				}
				if ixs[name], err = tbl.CreateIndex("bucket", valueBucket); err != nil {
					t.Fatal(err)
				}
				tbls[name] = tbl
			}
			p := sweepProtocol(proto, ctx)

			// view reads both tables through snap: per table, the full
			// scan and the lookup of every bucket the scan or the index
			// could hold.
			type tableView struct{ scan, lookup map[string]map[string]string }
			view := func(snap *Snapshot) map[string]tableView {
				t.Helper()
				out := map[string]tableView{}
				for name, tbl := range tbls {
					v := tableView{scan: map[string]map[string]string{}, lookup: map[string]map[string]string{}}
					if err := snap.Scan(tbl, func(k string, val []byte) bool {
						if ik, ok := valueBucket(k, val); ok {
							if v.scan[ik] == nil {
								v.scan[ik] = map[string]string{}
							}
							v.scan[ik][k] = string(val)
						}
						return true
					}); err != nil {
						t.Fatal(err)
					}
					for _, ik := range []string{"a", "b", "c", "x"} {
						got := map[string]string{}
						if err := snap.Lookup(ixs[name], ik, func(k string, val []byte) bool {
							got[k] = string(val)
							return true
						}); err != nil {
							t.Fatal(err)
						}
						if len(got) > 0 {
							v.lookup[ik] = got
						}
					}
					out[name] = v
				}
				return out
			}
			check := func(when string, v map[string]tableView) {
				t.Helper()
				for name, tv := range v {
					if fmt.Sprint(tv.lookup) != fmt.Sprint(tv.scan) {
						t.Fatalf("%s: table %s lookup %v != filtered scan %v", when, name, tv.lookup, tv.scan)
					}
				}
			}
			snapshot := func() *Snapshot {
				t.Helper()
				s, err := ctx.Snapshot(tbls["a"], tbls["b"])
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Release)
				return s
			}

			for i, ops := range script {
				pre := snapshot()
				before := view(pre)
				tx, err := p.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range ops {
					if o.val == "" {
						err = p.Delete(tx, tbls[o.tbl], o.key)
					} else {
						err = p.Write(tx, tbls[o.tbl], o.key, []byte(o.val))
					}
					if err != nil {
						t.Fatalf("txn %d: %v", i, err)
					}
				}
				mustCommit(t, p, tx)

				cts := tbls["a"].group.LastCTS()
				if got := tbls["b"].group.LastCTS(); got != cts {
					t.Fatalf("txn %d: LastCTS a=%d b=%d, want one spanning publish", i, cts, got)
				}
				post := snapshot()
				if post.CTS() != cts {
					t.Fatalf("txn %d: snapshot at %d, want %d", i, post.CTS(), cts)
				}
				after := view(post)
				check(fmt.Sprintf("txn %d", i), after)
				for _, name := range []string{"a", "b"} {
					if fmt.Sprint(after[name].scan) == fmt.Sprint(before[name].scan) {
						t.Fatalf("txn %d: table %s unchanged by its commit", i, name)
					}
				}
				// The snapshot pinned before the commit sees neither
				// table's change, through the scan or the index.
				if got := view(pre); fmt.Sprint(got) != fmt.Sprint(before) {
					t.Fatalf("txn %d: pre-commit snapshot moved:\n got %v\nwant %v", i, got, before)
				}
			}
		})
	}
}

// applyHookStore runs hook at the start of every Apply — inside a commit
// whose timestamps are reserved but not yet published.
type applyHookStore struct {
	kv.Store
	hook func()
}

func (s *applyHookStore) Apply(b *kv.Batch, sync bool) error {
	s.hook()
	return s.Store.Apply(b, sync)
}

// TestStressIndexLookupUnderGC races index lookups at pinned snapshots
// against a writer and the threshold sweeps that reclaim exited
// candidates (run it under -race). The writer moves keys between
// buckets, in and out of the partial index, and deletes them; each
// reader checks Lookup == filtered Scan at its own timestamp for every
// bucket. Half the readers hold a snapshot taken inside a commit's
// durable Apply, pinned one timestamp below that commit, and wait for the
// sweeps to cover every index shard before checking: the commit's exits
// sit exactly one past the GC horizon, so reclaiming a candidate a
// snapshot can still read shows up as a missing row. A lookup that
// trusts a candidate without rechecking the row shows up as an extra
// one. Once every snapshot is released, one GC leaves at most one
// candidate per live row.
func TestStressIndexLookupUnderGC(t *testing.T) {
	const keys = 64
	buckets := []string{"a", "b", "c", "d", "x"}
	dur := time.Second
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	ctx := NewContext()
	var tbl *Table
	var pinNext atomic.Bool
	// One pending snapshot per waiting reader; the hook releases extras.
	inflight := make(chan *Snapshot, 2)
	store := &applyHookStore{Store: kv.NewMem(), hook: func() {
		if !pinNext.Swap(false) {
			return
		}
		snap, err := ctx.Snapshot(tbl)
		if err != nil {
			t.Error(err)
			return
		}
		select {
		case inflight <- snap:
		default:
			snap.Release()
		}
	}}
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("s", store, TableOptions{GCEveryCommits: 16, VersionSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("bucket", valueBucket)
	if err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	h := newHammer(t)
	rng := newRand(1)
	commits := 0
	h.spawn(1, func(int) bool {
		// Two transactions over disjoint keys, both begun before either
		// commits: no timestamp is drawn between the first commit's
		// publish and the second's reservation, so a snapshot taken in
		// the second's Apply is pinned exactly one below it.
		perm := rng.Perm(keys)
		var txs [2]*Txn
		for i := range txs {
			tx, err := p.Begin()
			if err != nil {
				t.Error(err)
				return false
			}
			for _, k := range perm[3*i : 3*i+3] {
				key := fmt.Sprintf("k%02d", k)
				if rng.Intn(8) == 0 {
					err = p.Delete(tx, tbl, key)
				} else {
					err = p.Write(tx, tbl, key, []byte(fmt.Sprintf("%s%d", buckets[rng.Intn(len(buckets))], commits)))
				}
				if err != nil {
					t.Error(err)
					return false
				}
			}
			txs[i] = tx
		}
		for i, tx := range txs {
			pinNext.Store(i == 1)
			if err := p.Commit(tx); err != nil {
				t.Error(err)
				return false
			}
			commits++
		}
		return true
	})
	check := func(snap *Snapshot) bool {
		scan := map[string]map[string]string{}
		if err := snap.Scan(tbl, func(k string, v []byte) bool {
			if ik, ok := valueBucket(k, v); ok {
				if scan[ik] == nil {
					scan[ik] = map[string]string{}
				}
				scan[ik][k] = string(v)
			}
			return true
		}); err != nil {
			t.Error(err)
			return false
		}
		for _, b := range buckets {
			got := map[string]string{}
			if err := snap.Lookup(ix, b, func(k string, v []byte) bool {
				got[k] = string(v)
				return true
			}); err != nil {
				t.Error(err)
				return false
			}
			want := scan[b]
			if want == nil {
				want = map[string]string{}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("snapshot %d: Lookup(%q) = %v, filtered scan = %v", snap.CTS(), b, got, want)
				return false
			}
		}
		return true
	}
	h.spawn(2, func(int) bool {
		var snap *Snapshot
		select {
		case snap = <-inflight:
		case <-h.stop:
			return false
		}
		defer snap.Release()
		// gcSweepSlices threshold sweeps cover every index shard.
		target := tbl.GCStats().Runs + gcSweepSlices + 1
		for tbl.GCStats().Runs < target && !h.stopped() {
			time.Sleep(50 * time.Microsecond)
		}
		return check(snap)
	})
	h.spawn(2, func(int) bool {
		snap, err := ctx.Snapshot(tbl)
		if err != nil {
			t.Error(err)
			return false
		}
		defer snap.Release()
		return check(snap)
	})
	time.Sleep(dur)
	h.finish()
	close(inflight)
	for snap := range inflight {
		snap.Release()
	}
	if commits == 0 {
		t.Fatal("writer committed nothing")
	}
	if tbl.GCStats().ReclaimedSlots == 0 {
		t.Fatal("no sweep reclaimed anything under the readers")
	}

	tbl.GC()
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if live, got := len(scanAll(t, snap, tbl)), ix.ResidentPostings(); got > live {
		t.Fatalf("resident postings %d after release and GC, want <= %d live rows", got, live)
	}
}
