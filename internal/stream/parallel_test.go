package stream

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// parallelEnv builds a two-table topology group over a mem store with the
// SI protocol — the multi-state shape whose commits the lane barrier must
// keep atomic.
type parallelEnv struct {
	ctx    *txn.Context
	p      txn.Protocol
	t1, t2 *txn.Table
}

func newParallelEnv(t *testing.T) *parallelEnv {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	t1, err := ctx.CreateTable("lane1", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ctx.CreateTable("lane2", store, txn.TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("lanes", t1, t2); err != nil {
		t.Fatal(err)
	}
	return &parallelEnv{ctx: ctx, p: txn.NewSI(ctx), t1: t1, t2: t2}
}

// TestParallelKeyedRouting pins the routing contract: every occurrence of
// one key is processed by the same lane, so per-key update order is
// preserved for any lane count.
func TestParallelKeyedRouting(t *testing.T) {
	e := newParallelEnv(t)
	const elements, keys = 4000, 37
	top := New("routing")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < elements; i++ {
			emit(DataElement(Tuple{
				Key:   fmt.Sprintf("k%d", i%keys),
				Value: []byte(fmt.Sprintf("v%d", i)),
			}))
		}
		return nil
	})
	region := src.Punctuate(64).Transactions(e.p).Parallelize(4, nil)
	// Record which lane saw each key.
	laneOf := make([]map[string]int, 4)
	region.Apply(func(lane int, s *Stream) *Stream {
		seen := map[string]int{}
		laneOf[lane] = seen
		return s.Map("observe", func(tp Tuple) Tuple {
			seen[tp.Key]++
			return tp
		})
	})
	stats := region.ToTable(e.p, e.t1)
	region.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	// Each key must appear in exactly one lane, with all its occurrences.
	total := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%d", k)
		owners := 0
		for lane := 0; lane < 4; lane++ {
			if n := laneOf[lane][key]; n > 0 {
				owners++
				total += n
			}
		}
		if owners != 1 {
			t.Errorf("key %s processed by %d lanes", key, owners)
		}
	}
	if total != elements {
		t.Fatalf("lanes saw %d elements, want %d", total, elements)
	}
	if got := stats.Writes.Load(); got != elements {
		t.Fatalf("writes=%d, want %d", got, elements)
	}
	// Per-key order preserved: every key holds its LAST value.
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		var k, last int
		fmt.Sscanf(r.Key, "k%d", &k)
		for i := elements - 1; i >= 0; i-- {
			if i%keys == k {
				last = i
				break
			}
		}
		if want := fmt.Sprintf("v%d", last); string(r.Value) != want {
			t.Fatalf("key %s: got %q want %q (per-key order violated)", r.Key, r.Value, want)
		}
	}
}

// TestStressParallelLaneBarrier is the -race stress for concurrent lane
// flushes at commit barriers: 8 lanes, two chained per-lane TO_TABLE
// write paths on one shared transaction (two concurrent segment merges
// per lane per boundary), thousands of transactions. Verified against a
// sequentially computed expectation: both tables identical, every commit
// atomic, no aborts.
func TestStressParallelLaneBarrier(t *testing.T) {
	e := newParallelEnv(t)
	elements := 30_000
	if testing.Short() {
		elements = 6_000
	}
	const keys, commitEvery, lanes = 211, 37, 8

	top := New("stress")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < elements; i++ {
			emit(DataElement(Tuple{
				Key:   fmt.Sprintf("k%03d", i%keys),
				Value: []byte(fmt.Sprintf("v%07d", i)),
			}))
		}
		return nil
	})
	region := src.Punctuate(commitEvery).Transactions(e.p, e.t1, e.t2).Parallelize(lanes, nil)
	s1 := region.ToTable(e.p, e.t1)
	s2 := region.ToTable(e.p, e.t2)
	out := region.Merge("merge")
	collected := out.Collect()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	els := <-collected

	wantCommits := int64((elements + commitEvery - 1) / commitEvery)
	for i, stats := range []*ToTableStats{s1, s2} {
		if stats.Aborts.Load() != 0 {
			t.Fatalf("table %d: %d aborts in a single-writer stream", i+1, stats.Aborts.Load())
		}
		if stats.Writes.Load() != int64(elements) {
			t.Fatalf("table %d: writes=%d want %d", i+1, stats.Writes.Load(), elements)
		}
		if stats.Commits.Load() != wantCommits {
			t.Fatalf("table %d: commits=%d want %d", i+1, stats.Commits.Load(), wantCommits)
		}
	}
	// The merged stream re-serializes punctuations: exactly one BOT and
	// one COMMIT per transaction, all data elements in between.
	var bots, commits, data int
	depth := 0
	for _, el := range els {
		switch el.Kind {
		case KindBOT:
			bots++
			depth++
			if depth != 1 {
				t.Fatal("nested BOT in merged stream")
			}
		case KindCommit:
			commits++
			depth--
			if depth != 0 {
				t.Fatal("COMMIT without matching BOT in merged stream")
			}
		case KindData:
			data++
			if depth != 1 {
				t.Fatal("data element outside transaction in merged stream")
			}
		}
	}
	if int64(bots) != wantCommits || int64(commits) != wantCommits || data != elements {
		t.Fatalf("merged stream: bots=%d commits=%d data=%d, want %d/%d/%d",
			bots, commits, data, wantCommits, wantCommits, elements)
	}
	// Final state: each key holds its last value, in BOTH tables (the
	// barrier commits them atomically through one transaction).
	for _, tbl := range []*txn.Table{e.t1, e.t2} {
		rows, err := TableSnapshot(e.p, tbl)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != keys {
			t.Fatalf("table %q: %d keys, want %d", tbl.ID(), len(rows), keys)
		}
		for _, r := range rows {
			var k int
			fmt.Sscanf(r.Key, "k%03d", &k)
			last := ((elements - 1 - k) / keys * keys) + k
			if want := fmt.Sprintf("v%07d", last); string(r.Value) != want {
				t.Fatalf("table %q key %s: got %q want %q", tbl.ID(), r.Key, r.Value, want)
			}
		}
	}
}

// TestParallelLane1PoisonSurvivesMixedBatch is the deterministic
// regression for the single-lane poison-wipe bug: one batch carrying
// [BOT d d C BOT d C] flows through Parallelize(1) — all fused-stage
// flushes (including the failing one) run before the collector's barrier
// syncs, so poisoning must be keyed to the transaction, not reset at the
// BOT barrier. The first transaction's flush fails: it must be aborted
// (once), never committed; the second must commit.
func TestParallelLane1PoisonSurvivesMixedBatch(t *testing.T) {
	e := newParallelEnv(t)
	p := &faultProtocol{Protocol: e.p, failAt: 1} // first write op fails
	top := New("poison")
	d := func(key, val string) Element {
		return DataElement(Tuple{Key: key, Value: []byte(val)})
	}
	batches := [][]Element{{
		Punctuation(KindBOT), d("a", "1"), d("b", "2"), Punctuation(KindCommit),
		Punctuation(KindBOT), d("c", "3"), Punctuation(KindCommit),
	}}
	region := batchFeed(top, batches).Transactions(p).Parallelize(1, nil)
	stats := region.ToTable(p, e.t1)
	region.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if c, a := stats.Commits.Load(), stats.Aborts.Load(); c != 1 || a != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1/1 (poisoned txn must not commit, nor double-count)", c, a)
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Key != "c" {
		t.Fatalf("rows=%v, want only key c (failed txn's writes must not surface)", rows)
	}
}

// TestParallelRollbackDiscardsAllLanes: a ROLLBACK punctuation reaching
// the barrier must discard every lane's writes of that transaction.
func TestParallelRollbackDiscardsAllLanes(t *testing.T) {
	e := newParallelEnv(t)
	top := New("rollback")
	src := top.Source("gen", func(emit func(Element)) error {
		emit(Punctuation(KindBOT))
		for i := 0; i < 40; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("a%d", i), Value: []byte("keep")}))
		}
		emit(Punctuation(KindCommit))
		emit(Punctuation(KindBOT))
		for i := 0; i < 40; i++ {
			emit(DataElement(Tuple{Key: fmt.Sprintf("b%d", i), Value: []byte("drop")}))
		}
		emit(Punctuation(KindRollback))
		return nil
	})
	region := src.Transactions(e.p).Parallelize(4, nil)
	stats := region.ToTable(e.p, e.t1)
	region.Merge("merge").Discard()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	if c, a := stats.Commits.Load(), stats.Aborts.Load(); c != 1 || a != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1/1", c, a)
	}
	rows, err := TableSnapshot(e.p, e.t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 40 {
		t.Fatalf("%d rows, want 40 (rolled-back lane writes leaked)", len(rows))
	}
	for _, r := range rows {
		if r.Key[0] != 'a' {
			t.Fatalf("rolled-back key %q visible", r.Key)
		}
	}
}

// TestNoGoroutineLeakAfterRun: once Run returns, every goroutine a
// TO_TABLE topology started is gone — lane collectors, the
// transactions operator, the spine worker — so the count settles back to
// what it was before the topology was built. It covers a chain of two
// Stream.ToTable operators, a Merge-closed region and a MergeTuned-closed
// region, and checks the plan each records: the transactions operator
// and the spine render the tuner the same way ("window=N (fixed)" or
// "window=auto").
func TestNoGoroutineLeakAfterRun(t *testing.T) {
	cases := []struct {
		name string
		// build wires the TO_TABLE shape onto the punctuated source.
		build func(s *Stream, e *parallelEnv)
		// plan lists the recorded steps, as "kind name detail".
		plan []string
	}{
		{"stream-totable-chain", func(s *Stream, e *parallelEnv) {
			s, _ = s.Transactions(e.p, e.t1, e.t2).ToTable(e.p, e.t1)
			s, _ = s.ToTable(e.p, e.t2)
			s.Discard()
		}, []string{
			"operator transactions protocol=mvcc window=1 (fixed) (chained)",
			"region parallelize lanes=1 (identity, no router)",
			"table to_table/lane1 protocol=mvcc lanes=1 (per-lane segments)",
			"spine to_table/lane1/merge merge barrier, lanes=1 (synchronous commit at barrier)",
			"region parallelize lanes=1 (identity, no router)",
			"table to_table/lane2 protocol=mvcc lanes=1 (per-lane segments)",
			"spine to_table/lane2/merge merge barrier, lanes=1 (synchronous commit at barrier)",
		}},
		{"merge", func(s *Stream, e *parallelEnv) {
			region := s.Transactions(e.p).Parallelize(3, nil)
			region.ToTable(e.p, e.t1)
			region.Merge("merge").Discard()
		}, []string{
			"operator transactions protocol=mvcc window=1 (fixed) (chained)",
			"region parallelize lanes=3 key=default (hash-routed, punctuations broadcast)",
			"table to_table/lane1 protocol=mvcc lanes=3 (per-lane segments)",
			"spine merge merge barrier, lanes=3 (synchronous commit at barrier)",
		}},
		{"merge-tuned-pinned", func(s *Stream, e *parallelEnv) {
			region, merge := pinnedRegion(s, e.p, 4, 3)
			region.ToTable(e.p, e.t1)
			merge().Discard()
		}, []string{
			"operator transactions protocol=mvcc window=4 (fixed) (chained)",
			"region parallelize lanes=3 key=default (hash-routed, punctuations broadcast)",
			"table to_table/lane1 protocol=mvcc lanes=3 (per-lane segments)",
			"spine merge commit spine, lanes=3 window=4 (fixed)",
		}},
		{"merge-tuned-auto", func(s *Stream, e *parallelEnv) {
			tun := NewAutoTuner(AutoTune{})
			region := s.TransactionsTuned(e.p, tun).Parallelize(3, nil)
			region.ToTable(e.p, e.t1)
			region.MergeTuned("merge", tun).Discard()
		}, []string{
			"operator transactions protocol=mvcc window=auto (chained)",
			"region parallelize lanes=3 key=default (hash-routed, punctuations broadcast)",
			"table to_table/lane1 protocol=mvcc lanes=3 (per-lane segments)",
			"spine merge commit spine, lanes=3 window=auto",
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newParallelEnv(t)
			before := runtime.NumGoroutine()
			top := New(c.name)
			src := top.Source("gen", func(emit func(Element)) error {
				for i := 0; i < 2000; i++ {
					emit(DataElement(Tuple{Key: fmt.Sprintf("k%d", i%97), Value: []byte("v")}))
				}
				return nil
			})
			c.build(src.Punctuate(10), e)
			if err := top.Run(); err != nil {
				t.Fatal(err)
			}
			var plan []string
			for _, st := range top.Plan() {
				if st.Kind != "source" && st.Name != "punctuate" {
					plan = append(plan, st.Kind+" "+st.Name+" "+st.Detail)
				}
			}
			if fmt.Sprint(plan) != fmt.Sprint(c.plan) {
				t.Fatalf("plan:\n got %q\nwant %q", plan, c.plan)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Run, %d before the topology was built", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
