package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sistream/internal/kv"
)

// hammerKey commits n sequential single-key blind writes through p.
func hammerKey(t *testing.T, p Protocol, tbl *Table, key string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGCSweeperReclaimsDeadVersions: with the opt-in threshold sweeper, a
// read-mostly overwritten key does not retain dead versions until its
// array fills — the retiring group-commit leader sweeps every
// GCEveryCommits commits, and the counters report it.
func TestGCSweeperReclaimsDeadVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	// VersionSlots far above the write count: Install-time lazy GC (which
	// only fires on a full array) never runs, isolating the sweeper.
	tbl, err := ctx.CreateTable("swept", store, TableOptions{
		VersionSlots:   256,
		GCEveryCommits: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	stats := tbl.GCStats()
	if stats.Runs == 0 {
		t.Fatal("sweeper never ran despite GCEveryCommits=10 over 100 commits")
	}
	if stats.ReclaimedSlots == 0 {
		t.Fatal("sweeper ran but reclaimed nothing")
	}
	if stats.SweptShards == 0 {
		t.Fatal("sweeper reported no swept shards")
	}
	// Incremental sweeps: threshold-driven slices must visit fewer shards
	// per run than a whole-table scan.
	if perRun := stats.SweptShards / stats.Runs; perRun >= tableShards {
		t.Fatalf("per-sweep shard count %d, want < %d (incremental slices)", perRun, tableShards)
	}
	// 100 installs, one live version; the sweeper bounds residency to at
	// most one threshold interval of dead versions.
	if rv := tbl.ResidentVersions(); rv > 11 {
		t.Fatalf("resident versions = %d after sweeps, want <= 11", rv)
	}
}

// TestGCFeedPinProtectsLaggingFeed is the regression for the GC vs. feed
// ReadAt race: a partitioned feed reads rows at HISTORICAL commit
// snapshots, and with GCEveryCommits=1 every retiring leader sweeps —
// so without the feed's horizon pin, the versions a stalled consumer
// still needs would be reclaimed and the drain would report wrong
// values. The feed's oldest undelivered CTS must pin the horizon while
// the consumer stalls, every drained event must read exactly the value
// its commit installed, and once drained and acknowledged the pin must
// release and the sweeper reclaim.
func TestGCFeedPinProtectsLaggingFeed(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("pinned", store, TableOptions{
		VersionSlots:   256,
		GCEveryCommits: 1, // most aggressive threshold sweeping
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	const parts, commits = 2, 60
	feed, err := tbl.WatchPartitioned(parts, commits+8, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The stalled phase: commit many updates of one hot key while no
	// consumer drains the feed.
	var wantCTS []Timestamp
	for i := 0; i < commits; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, "hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		wantCTS = append(wantCTS, tbl.Group().LastCTS())
	}
	if pinned := feed.PinnedCTS(); pinned == 0 || pinned > wantCTS[0] {
		t.Fatalf("stalled feed pins %d, want <= first undelivered cts %d (and non-zero)", pinned, wantCTS[0])
	}
	if stats := tbl.GCStats(); stats.Runs == 0 {
		t.Fatal("sweeper never ran (test needs active sweeping to prove the pin)")
	}
	// The hot key's dead versions are above the pinned horizon: retained.
	if rv := tbl.ResidentVersions(); rv != commits {
		t.Fatalf("resident versions = %d during the stall, want %d (pin must block reclamation)", rv, commits)
	}

	// Drain: every event's rows must read exactly as its commit installed
	// them, at the commit's own snapshot.
	feed.Stop()
	for part, events := range feed.Partitions() {
		n := 0
		for ev := range events {
			if ev.CTS != wantCTS[n] {
				t.Fatalf("partition %d event %d: cts %d want %d", part, n, ev.CTS, wantCTS[n])
			}
			for _, k := range ev.Keys {
				v, ok := tbl.ReadAt(k, ev.CTS)
				if !ok || string(v) != fmt.Sprintf("v%d", n) {
					t.Fatalf("commit %d: ReadAt(%q) = %q (ok=%t), want v%d — historical version reclaimed under the pin", n, k, v, ok, n)
				}
			}
			feed.Ack(part)
			n++
		}
		if n != commits {
			t.Fatalf("partition %d drained %d events, want %d", part, n, commits)
		}
	}
	if pinned := feed.PinnedCTS(); pinned != 0 {
		t.Fatalf("drained+acked feed still pins %d", pinned)
	}
	// With the pin gone, reclamation proceeds.
	tbl.GC()
	if rv := tbl.ResidentVersions(); rv != 1 {
		t.Fatalf("resident versions = %d after unpinned GC, want 1", rv)
	}
}

// TestGCCoalescedFeedDoesNotPinHorizon is the regression for the
// stalled-consumer horizon leak: an aligned partitioned feed pins its
// oldest undelivered commit, so a consumer that never drains (or never
// acks) pins the GC horizon FOREVER and the table's residency grows with
// every commit — TestGCFeedPinProtectsLaggingFeed shows exactly that,
// deliberately. A coalescing feed (FeedOptions.Coalesce) must not: it
// holds no pin, so with the most aggressive sweeping (GCEveryCommits=1) a
// long write burst against a never-draining, never-acking consumer keeps
// ResidentVersions bounded, and the folded backlog still delivers the
// final state on drain.
func TestGCCoalescedFeedDoesNotPinHorizon(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("changelog", store, TableOptions{
		VersionSlots:   256,
		GCEveryCommits: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)

	// Tiny buffers and NO consumer: the aligned feed would leave every
	// commit pinned here.
	feed, err := tbl.WatchPartitionedOpts(1, FeedOptions{Buf: 2, Coalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if !feed.Coalesced() {
		t.Fatal("feed does not report changelog mode")
	}

	const commits = 200
	for i := 0; i < commits; i++ {
		tx, err := p.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(tx, tbl, "hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := p.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if pinned := feed.PinnedCTS(); pinned != 0 {
			t.Fatalf("coalescing feed pins cts %d at commit %d, want no pin ever", pinned, i)
		}
	}
	feed.Ack(0) // no-op, must not panic or move anything
	if pinned := feed.PinnedCTS(); pinned != 0 {
		t.Fatalf("PinnedCTS = %d after no-op Ack, want 0", pinned)
	}
	// The unpinned horizon lets the per-commit sweeper reclaim: residency
	// stays bounded by one incremental sweep-coverage interval, nowhere
	// near the burst length. (The aligned-feed control above holds all
	// `commits` versions at this point.)
	if rv := tbl.ResidentVersions(); rv > 32 {
		t.Fatalf("resident versions = %d during the stall, want bounded (<= 32)", rv)
	}

	// Drain after stop: the folded backlog must surface the FINAL state —
	// newest CTS, each key once — and reading at that CTS yields the last
	// committed value (the latest version is never reclaimed).
	feed.Stop()
	lastCTS := tbl.Group().LastCTS()
	var got []FeedEvent
	for ev := range feed.Partitions()[0] {
		got = append(got, ev)
	}
	if len(got) == 0 {
		t.Fatal("no events drained from the coalesced backlog")
	}
	final := got[len(got)-1]
	if final.CTS != lastCTS {
		t.Fatalf("final event cts = %d, want newest commit %d", final.CTS, lastCTS)
	}
	seen := 0
	for _, k := range final.Keys {
		if k == "hot" {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("final event carries %q %d times, want exactly once (newest-wins dedup)", "hot", seen)
	}
	v, ok := tbl.ReadAt("hot", final.CTS)
	if !ok || string(v) != fmt.Sprintf("v%d", commits-1) {
		t.Fatalf("ReadAt(hot, %d) = %q (ok=%t), want v%d", final.CTS, v, ok, commits-1)
	}
}

// TestGCIdleSweeperReclaimsAfterQuiesce is the regression for the
// idle-table leak: threshold sweeps only run on retiring commit leaders,
// so a table whose writer stops after a burst retains every dead version
// until the NEXT commit — which may never come. With GCIdleInterval set,
// the background sweeper must detect the stall and reclaim without any
// further commit; and once reclaimed, a permanently idle table must not
// be rescanned (no unreclaimed commits remain).
func TestGCIdleSweeperReclaimsAfterQuiesce(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	const idle = 10 * time.Millisecond
	// GCEveryCommits stays 0 and VersionSlots exceeds the write count:
	// neither the threshold sweeper nor Install-time lazy GC can reclaim,
	// isolating the idle trigger.
	tbl, err := ctx.CreateTable("idle", store, TableOptions{
		VersionSlots:   256,
		GCIdleInterval: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	defer tbl.StopIdleGC()
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	// The burst is over; within about two intervals the idle sweeper must
	// fire a full sweep and collapse residency to the one live version.
	deadline := time.Now().Add(100 * idle)
	for tbl.ResidentVersions() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("resident versions = %d long after quiesce, want 1 (idle sweeper never fired)", tbl.ResidentVersions())
		}
		time.Sleep(idle / 2)
	}
	runsAfterSweep := tbl.GCStats().Runs
	if runsAfterSweep == 0 {
		t.Fatal("residency collapsed but no sweep was recorded")
	}

	// Idle steady state: with nothing newly committed, the ticker must not
	// keep burning full-table scans.
	time.Sleep(5 * idle)
	if runs := tbl.GCStats().Runs; runs != runsAfterSweep {
		t.Fatalf("idle sweeper kept running on a reclaimed table: %d runs, want %d", runs, runsAfterSweep)
	}

	// StopIdleGC is idempotent and ends the goroutine: a fresh burst after
	// stopping must leak (proving the loop is gone, not just idle).
	tbl.StopIdleGC()
	tbl.StopIdleGC()
	hammerKey(t, p, tbl, "hot", 50)
	time.Sleep(5 * idle)
	// The surviving pre-burst version plus 50 fresh installs, all retained.
	if rv := tbl.ResidentVersions(); rv != 51 {
		t.Fatalf("resident versions = %d after StopIdleGC burst, want 51 (stopped sweeper must not reclaim)", rv)
	}
}

// TestGCSweeperDisabledRetainsVersions is the control: without the
// sweeper (and with a version array large enough that lazy GC never
// fires), every dead version stays resident — the leak the sweeper fixes.
func TestGCSweeperDisabledRetainsVersions(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("unswept", store, TableOptions{VersionSlots: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewSI(ctx)
	hammerKey(t, p, tbl, "hot", 100)

	if stats := tbl.GCStats(); stats.Runs != 0 {
		t.Fatalf("sweeper ran %d times with GCEveryCommits=0", stats.Runs)
	}
	if rv := tbl.ResidentVersions(); rv != 100 {
		t.Fatalf("resident versions = %d, want 100 (all versions retained without the sweeper)", rv)
	}
}

// TestGCSweepHorizonVsInFlightCommit is the regression for the sweeper
// horizon racing an in-flight commit. With nothing pinned,
// OldestActiveVersion is the clock, which runs ahead of the published
// LastCTS while a leader sits between installing its batch and
// publishing it. A sweep by the previous leader (after it released the
// latch) could then take a horizon above the cut a snapshot is about to
// pin, and reclaim the version that snapshot must read. S2PL writers pin
// no snapshot, so only the readers' pins protect versions here. The two
// writers own disjoint keys, so their commits overlap instead of
// queueing on locks; each transaction rewrites all of its writer's keys
// with one value, and every snapshot must find every key, with one value
// per writer.
func TestGCSweepHorizonVsInFlightCommit(t *testing.T) {
	ctx := NewContext()
	store := kv.NewMem()
	defer store.Close()
	tbl, err := ctx.CreateTable("hot", store, TableOptions{VersionSlots: 8, GCEveryCommits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	p := NewS2PL(ctx)
	keys := [2][]string{{"a0", "b0", "c0"}, {"a1", "b1", "c1"}}
	write := func(w int, v string) error {
		tx, err := p.Begin()
		if err != nil {
			return err
		}
		for _, k := range keys[w] {
			if err := p.Write(tx, tbl, k, []byte(v)); err != nil {
				p.Abort(tx)
				return err
			}
		}
		return p.Commit(tx)
	}
	for w := range keys {
		if err := write(w, "init"); err != nil {
			t.Fatal(err)
		}
	}

	const writes = 3000
	var wg sync.WaitGroup
	writeErrs := make(chan error, 2)
	for w := range keys {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := write(w, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					writeErrs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var snaps atomic.Int64
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := ctx.Snapshot(tbl)
				if err != nil {
					errs <- err
					return
				}
				snaps.Add(1)
				for _, set := range keys {
					var first []byte
					for i, k := range set {
						v, ok, err := snap.Get(tbl, k)
						if err != nil || !ok {
							errs <- fmt.Errorf("snapshot at cts %d: Get(%q) = %v, %v: the version it must read was reclaimed", snap.CTS(), k, ok, err)
							snap.Release()
							return
						}
						if i == 0 {
							first = v
						} else if string(v) != string(first) {
							errs <- fmt.Errorf("snapshot at cts %d: %q=%q but %q=%q", snap.CTS(), set[0], first, k, v)
							snap.Release()
							return
						}
					}
				}
				snap.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	close(writeErrs)
	for err := range writeErrs {
		t.Fatal(err)
	}
	for err := range errs {
		t.Fatal(err)
	}
	gc := tbl.GCStats()
	if gc.Runs == 0 || gc.ReclaimedSlots == 0 || snaps.Load() == 0 {
		t.Fatalf("nothing raced: %d sweeps reclaiming %d versions, %d snapshots", gc.Runs, gc.ReclaimedSlots, snaps.Load())
	}
	t.Logf("%d sweeps reclaimed %d versions under %d snapshots", gc.Runs, gc.ReclaimedSlots, snaps.Load())
}
