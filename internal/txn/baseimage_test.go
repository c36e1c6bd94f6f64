package txn

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/lsm"
)

// baseStore hands out the base store of the recovery tests across
// simulated restarts: a mem store survives by being handed to the next
// Context; an lsm store is closed and reopened from its directory.
type baseStore struct {
	t       *testing.T
	backend string
	dir     string
	cur     kv.Store
}

func newBaseStore(t *testing.T, backend string) *baseStore {
	b := &baseStore{t: t, backend: backend, dir: t.TempDir()}
	t.Cleanup(func() {
		if b.cur != nil {
			b.cur.Close()
		}
	})
	return b
}

// restart returns the store as a freshly started process would open it.
func (b *baseStore) restart() kv.Store {
	b.t.Helper()
	switch b.backend {
	case "mem":
		if b.cur == nil {
			b.cur = kv.NewMem()
		}
	case "lsm":
		if b.cur != nil {
			if err := b.cur.Close(); err != nil {
				b.t.Fatal(err)
			}
		}
		db, err := lsm.Open(b.dir, lsm.Options{})
		if err != nil {
			b.t.Fatal(err)
		}
		b.cur = db
	default:
		b.t.Fatalf("unknown backend %q", b.backend)
	}
	return b.cur
}

// recoverTables creates tables ids over store in one group, which runs
// recovery, and returns them with an SI protocol over the context.
func recoverTables(t *testing.T, store kv.Store, opts TableOptions, ids ...StateID) (*Context, *SI, []*Table) {
	t.Helper()
	ctx := NewContext()
	var tbls []*Table
	for _, id := range ids {
		tbl, err := ctx.CreateTable(id, store, opts)
		if err != nil {
			t.Fatal(err)
		}
		tbls = append(tbls, tbl)
	}
	if _, err := ctx.CreateGroup("g", tbls...); err != nil {
		t.Fatal(err)
	}
	return ctx, NewSI(ctx), tbls
}

// scanAll collects a snapshot scan of tbl, failing on a key seen twice.
func scanAll(t *testing.T, snap *Snapshot, tbl *Table) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := snap.Scan(tbl, func(k string, v []byte) bool {
		if _, dup := got[k]; dup {
			t.Fatalf("scan returned key %q twice", k)
		}
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRecoverKeyStartingWith0xff: a row whose key starts with byte 0xff
// is recovered like any other. The recovery scan once ended at
// prefix+0xff, which excluded exactly those rows.
func TestRecoverKeyStartingWith0xff(t *testing.T) {
	for _, backend := range []string{"mem", "lsm"} {
		t.Run(backend, func(t *testing.T) {
			bs := newBaseStore(t, backend)
			_, p, tbls := recoverTables(t, bs.restart(), TableOptions{SyncCommits: true}, "t")
			write(t, p, tbls[0], "\xff\x01", "high", "k", "low")

			ctx, _, tbls := recoverTables(t, bs.restart(), TableOptions{SyncCommits: true}, "t")
			snap, err := ctx.Snapshot(tbls[0])
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			want := map[string]string{"\xff\x01": "high", "k": "low"}
			if got := scanAll(t, snap, tbls[0]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered %q, want %q", got, want)
			}
			// The backfill of an index created after recovery reads the
			// same rows, and its posting-row clear uses the same bound.
			ix, err := tbls[0].CreateIndex("v", func(_ string, v []byte) (string, bool) { return "\xff" + string(v), true })
			if err != nil {
				t.Fatal(err)
			}
			if got := lookupAll(t, ix, snap.CTS(), "\xffhigh"); got["\xff\x01"] != "high" || len(got) != 1 {
				t.Fatalf("index lookup after recovery = %q", got)
			}
		})
	}
}

// TestStateAndIndexIDsRejectSeparators: table and index IDs cannot
// contain '/' or NUL, so one table's row range never holds another
// table's rows. Without the check a table "a/b" stores its rows under
// "s/a/b/...", inside table "a"'s recovery range, and table "a" recovers
// them as its own. The neighbour "a0" sits exactly at the end of "a"'s
// range.
func TestStateAndIndexIDsRejectSeparators(t *testing.T) {
	bs := newBaseStore(t, "lsm")
	store := bs.restart()
	ctx := NewContext()
	for _, id := range []StateID{"a/b", "a\x00b", "/", "a/"} {
		if _, err := ctx.CreateTable(id, store, TableOptions{}); err == nil {
			t.Fatalf("CreateTable(%q) accepted", id)
		}
	}
	_, p, tbls := recoverTables(t, store, TableOptions{SyncCommits: true}, "a", "a0")
	for _, name := range []string{"x/y", "x\x00y"} {
		if _, err := tbls[0].CreateIndex(name, valueBucket); err == nil {
			t.Fatalf("CreateIndex(%q) accepted", name)
		}
	}
	write(t, p, tbls[0], "k1", "a1", "\xff", "a2")
	write(t, p, tbls[1], "k1", "b1", "k2", "b2", "k3", "b3")

	ctx, _, tbls = recoverTables(t, bs.restart(), TableOptions{}, "a", "a0")
	snap, err := ctx.Snapshot(tbls...)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if got := scanAll(t, snap, tbls[0]); len(got) != 2 || got["k1"] != "a1" || got["\xff"] != "a2" {
		t.Fatalf("table a recovered %q", got)
	}
	if got := scanAll(t, snap, tbls[1]); len(got) != 3 || got["k1"] != "b1" {
		t.Fatalf("table a0 recovered %q", got)
	}
	if tbls[0].Keys() != 2 || tbls[1].Keys() != 3 {
		t.Fatalf("Keys() = %d, %d; want 2, 3", tbls[0].Keys(), tbls[1].Keys())
	}
}

// baseModel is the reference state of the base-image property test: the
// table's committed rows, the keys with at least one version (Keys), and
// the version slots a never-reclaiming table holds (ResidentVersions).
type baseModel struct {
	rows     map[string]string
	ever     map[string]bool
	resident int
}

func newBaseModel(rows map[string]string) *baseModel {
	m := &baseModel{rows: map[string]string{}, ever: map[string]bool{}}
	for k, v := range rows {
		m.rows[k] = v
		m.ever[k] = true
	}
	m.resident = len(rows)
	return m
}

func (m *baseModel) clone() map[string]string {
	out := make(map[string]string, len(m.rows))
	for k, v := range m.rows {
		out[k] = v
	}
	return out
}

// lastByte is the second extractor of the property test: the last byte
// of the value (empty values are not indexed).
func lastByte(_ string, v []byte) (string, bool) {
	if len(v) == 0 {
		return "", false
	}
	return string(v[len(v)-1:]), true
}

// checkBaseState compares every read path of tbl at snap against want:
// point reads over the key universe, Scan, every stripe of a striped
// scan, ParallelScan, and each index's Lookup against the filtered
// model.
func checkBaseState(t *testing.T, label string, snap *Snapshot, tbl *Table, ixs []*Index, universe []string, want map[string]string) {
	t.Helper()
	for _, k := range universe {
		v, ok, err := snap.Get(tbl, k)
		if err != nil {
			t.Fatal(err)
		}
		wv, wok := want[k]
		if ok != wok || string(v) != wv {
			t.Fatalf("%s: Get(%q) = %q,%v; want %q,%v", label, k, v, ok, wv, wok)
		}
	}
	if got := scanAll(t, snap, tbl); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Scan = %q\nwant %q", label, got, want)
	}
	const stripes = 3
	striped := map[string]string{}
	for s := 0; s < stripes; s++ {
		if err := snap.ScanStripe(tbl, s, stripes, func(k string, v []byte) bool {
			if _, dup := striped[k]; dup {
				t.Fatalf("%s: stripes returned key %q twice", label, k)
			}
			striped[k] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(striped) != fmt.Sprint(want) {
		t.Fatalf("%s: stripes = %q\nwant %q", label, striped, want)
	}
	var mu sync.Mutex
	parallel := map[string]string{}
	if err := snap.ParallelScan(tbl, 4, func(k string, v []byte) bool {
		mu.Lock()
		parallel[k] = string(v)
		mu.Unlock()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(parallel) != fmt.Sprint(want) {
		t.Fatalf("%s: ParallelScan = %q\nwant %q", label, parallel, want)
	}
	for _, ix := range ixs {
		filtered := map[string]map[string]string{}
		for k, v := range want {
			if ik, ok := ix.extract(k, []byte(v)); ok {
				if filtered[ik] == nil {
					filtered[ik] = map[string]string{}
				}
				filtered[ik][k] = v
			}
		}
		for ik, rows := range filtered {
			if got := lookupAll(t, ix, snap.CTS(), ik); fmt.Sprint(got) != fmt.Sprint(rows) {
				t.Fatalf("%s: index %s Lookup(%q) = %q\nwant %q", label, ix.Name(), ik, got, rows)
			}
		}
		for _, ik := range []string{"a", "b", "c", "x", "0", "9"} {
			if _, ok := filtered[ik]; !ok {
				if got := lookupAll(t, ix, snap.CTS(), ik); len(got) != 0 {
					t.Fatalf("%s: index %s Lookup(%q) = %q, want none", label, ix.Name(), ik, got)
				}
			}
		}
	}
}

// TestPropertyBaseImageEquivalence recovers a store, then applies a
// seeded mix of writes, deletes and re-inserts to recovered and new keys
// while snapshots stay open. After every commit each read path — point
// reads, Scan, the ParallelScan stripes, index Lookup — must equal a
// reference model at the latest snapshot and at every open one, and
// Keys/ResidentVersions must match the model's counts. One index is
// created right after recovery (backfilled from base rows only), one
// mid-run (base rows and promoted objects). The run then closes and
// recovers the store twice more, writing in between, so later
// generations recover rows that were promoted, deleted and re-inserted.
// With 2-slot version arrays, reclamation runs under the open snapshots
// and ResidentVersions is checked after a full sweep instead.
func TestPropertyBaseImageEquivalence(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, backend := range []string{"mem", "lsm"} {
		for _, slots := range []int{1024, 2} {
			for seed := int64(0); seed < seeds; seed++ {
				t.Run(fmt.Sprintf("%s/slots=%d/seed=%d", backend, slots, seed), func(t *testing.T) {
					checkBaseImageEquivalence(t, backend, slots, seed)
				})
			}
		}
	}
}

func checkBaseImageEquivalence(t *testing.T, backend string, slots int, seed int64) {
	rng := rand.New(rand.NewSource(seed + 9100))
	bs := newBaseStore(t, backend)
	opts := TableOptions{VersionSlots: slots}

	// The key universe: rows recovered from the first generation, keys
	// first written after recovery, and edge-case keys (empty, 0xff
	// lead byte).
	var universe []string
	for i := 0; i < 48; i++ {
		universe = append(universe, fmt.Sprintf("r%02d", i))
	}
	for i := 0; i < 16; i++ {
		universe = append(universe, fmt.Sprintf("n%02d", i))
	}
	universe = append(universe, "", "\xff", "\xff\x01")
	value := func() string {
		if rng.Intn(10) == 0 {
			return ""
		}
		return fmt.Sprintf("%c%d", "abcx"[rng.Intn(4)], rng.Intn(1000))
	}

	_, p, tbls := recoverTables(t, bs.restart(), opts, "rows")
	initial := map[string]string{}
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range universe {
		if strings.HasPrefix(k, "n") || i%5 == 0 {
			continue
		}
		v := value()
		initial[k] = v
		if err := p.Write(tx, tbls[0], k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(t, p, tx)
	m := newBaseModel(initial)

	for gen := 0; gen < 3; gen++ {
		ctx, p, tbls := recoverTables(t, bs.restart(), opts, "rows")
		tbl := tbls[0]
		m = newBaseModel(m.rows)
		label := fmt.Sprintf("gen %d recovered", gen)
		latest := func() *Snapshot {
			snap, err := ctx.Snapshot(tbl)
			if err != nil {
				t.Fatal(err)
			}
			return snap
		}
		snap := latest()
		checkBaseState(t, label, snap, tbl, nil, universe, m.rows)
		snap.Release()
		if tbl.Keys() != len(m.rows) || tbl.ResidentVersions() != len(m.rows) {
			t.Fatalf("%s: Keys %d ResidentVersions %d, want %d", label, tbl.Keys(), tbl.ResidentVersions(), len(m.rows))
		}
		ix, err := tbl.CreateIndex("bucket", valueBucket)
		if err != nil {
			t.Fatal(err)
		}
		ixs := []*Index{ix}

		// An index answers for the snapshots taken after its creation
		// (its backfill indexes the rows as of then), so an open snapshot
		// checks the indexes that existed when it was taken.
		type openSnap struct {
			snap *Snapshot
			want map[string]string
			ixs  []*Index
		}
		var open []openSnap
		const commits = 60
		for c := 0; c < commits; c++ {
			if c == commits/2 {
				mid, err := tbl.CreateIndex("last", lastByte)
				if err != nil {
					t.Fatal(err)
				}
				ixs = append(ixs, mid)
			}
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			final := map[string]*string{}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				k := universe[rng.Intn(len(universe))]
				if rng.Intn(4) == 0 {
					if err := p.Delete(tx, tbl, k); err != nil {
						t.Fatal(err)
					}
					final[k] = nil
					continue
				}
				v := value()
				if err := p.Write(tx, tbl, k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				final[k] = &v
			}
			mustCommit(t, p, tx)
			for k, v := range final {
				m.ever[k] = true
				if v == nil {
					delete(m.rows, k)
					continue
				}
				m.rows[k] = *v
				m.resident++
			}

			label := fmt.Sprintf("gen %d commit %d", gen, c)
			snap := latest()
			checkBaseState(t, label, snap, tbl, ixs, universe, m.rows)
			snap.Release()
			for i, o := range open {
				checkBaseState(t, fmt.Sprintf("%s open snapshot %d", label, i), o.snap, tbl, o.ixs, universe, o.want)
			}
			if tbl.Keys() != len(m.ever) {
				t.Fatalf("%s: Keys = %d, want %d", label, tbl.Keys(), len(m.ever))
			}
			if slots >= commits*4 && tbl.ResidentVersions() != m.resident {
				t.Fatalf("%s: ResidentVersions = %d, want %d", label, tbl.ResidentVersions(), m.resident)
			}
			if rng.Intn(4) == 0 && len(open) < 4 {
				open = append(open, openSnap{latest(), m.clone(), ixs})
			}
			if rng.Intn(5) == 0 && len(open) > 0 {
				i := rng.Intn(len(open))
				open[i].snap.Release()
				open = append(open[:i], open[i+1:]...)
			}
		}
		for _, o := range open {
			o.snap.Release()
		}
		// With no snapshot pinned, a full sweep leaves exactly one version
		// per live key, however many promotions and reclaims came before.
		tbl.GC()
		if got := tbl.ResidentVersions(); got != len(m.rows) {
			t.Fatalf("gen %d: ResidentVersions after GC = %d, want %d", gen, got, len(m.rows))
		}
	}
}

// TestStressBaseImagePromotion runs promotion of recovered rows against
// concurrent snapshot readers (run it under -race). Rows come in pairs
// that every transaction writes together, and the recovered image holds
// equal pairs too, so any read that mixes a promoted object's version
// with a stale base-image row, or misses a row while its key is being
// promoted, shows up as an unequal or missing pair. 2-slot version
// arrays keep reclamation running under the readers' pins.
func TestStressBaseImagePromotion(t *testing.T) {
	const pairs = 500
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 100 * time.Millisecond
	}
	pairKeys := func(i int) (string, string) {
		return fmt.Sprintf("p%03d/a", i), fmt.Sprintf("p%03d/b", i)
	}
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	_, p, tbls := recoverTables(t, store, TableOptions{}, "pairs")
	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pairs; i++ {
		a, b := pairKeys(i)
		p.Write(tx, tbls[0], a, []byte("0"))
		p.Write(tx, tbls[0], b, []byte("0"))
	}
	mustCommit(t, p, tx)

	ctx, p, tbls := recoverTables(t, store, TableOptions{VersionSlots: 2}, "pairs")
	tbl := tbls[0]
	h := newHammer(t)
	gen := 0
	h.spawn(1, func(int) bool {
		gen++
		tx, err := p.Begin()
		if err != nil {
			t.Error(err)
			return false
		}
		v := []byte(fmt.Sprint(gen))
		for n := 0; n < 4; n++ {
			a, b := pairKeys(rand.Intn(pairs))
			p.Write(tx, tbl, a, v)
			p.Write(tx, tbl, b, v)
		}
		if err := p.Commit(tx); err != nil {
			t.Error(err)
			return false
		}
		return true
	})
	checkPairs := func(rows map[string]string) bool {
		if len(rows) != 2*pairs {
			t.Errorf("snapshot holds %d rows, want %d", len(rows), 2*pairs)
			return false
		}
		for i := 0; i < pairs; i++ {
			a, b := pairKeys(i)
			if rows[a] != rows[b] {
				t.Errorf("torn pair %d: %q vs %q", i, rows[a], rows[b])
				return false
			}
		}
		return true
	}
	h.spawn(3, func(id int) bool {
		snap, err := ctx.Snapshot(tbl)
		if err != nil {
			t.Error(err)
			return false
		}
		defer snap.Release()
		rows := map[string]string{}
		var mu sync.Mutex
		collect := func(k string, v []byte) bool {
			mu.Lock()
			rows[k] = string(v)
			mu.Unlock()
			return true
		}
		switch id {
		case 0:
			for i := 0; i < pairs; i++ {
				a, b := pairKeys(i)
				for _, k := range []string{a, b} {
					v, ok, err := snap.Get(tbl, k)
					if err != nil || !ok {
						t.Errorf("Get(%q) = %v, %v", k, ok, err)
						return false
					}
					rows[k] = string(v)
				}
			}
		case 1:
			snap.Scan(tbl, collect)
		default:
			snap.ParallelScan(tbl, 3, collect)
		}
		return checkPairs(rows)
	})
	time.Sleep(dur)
	h.finish()
	if gen == 0 {
		t.Fatal("writer committed nothing")
	}

	// Every pair the writer touched is promoted; the rest still live in
	// the base image. Both halves together must account for every key.
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	checkPairs(scanAll(t, snap, tbl))
	if tbl.Keys() != 2*pairs {
		t.Fatalf("Keys = %d, want %d", tbl.Keys(), 2*pairs)
	}
}
