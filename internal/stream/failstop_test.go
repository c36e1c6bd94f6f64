package stream

import (
	"errors"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// TestSpineDrainsCleanlyOnGroupFailure: a sticky sync failure mid-run
// poisons the commit group; every TO_TABLE closer — the synchronous Merge
// barrier, the fused spine (MergeTuned, pinned window 4) and
// Stream.ToTable — must surface exactly one topology failure (wrapping
// txn.ErrGroupFailed), account every later boundary as an abort, and
// drain to completion — no wedged worker, no post-failure commit
// acknowledged.
func TestSpineDrainsCleanlyOnGroupFailure(t *testing.T) {
	closers := []struct {
		name string
		wire func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats
	}{
		{"merge", func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			region := s.Transactions(p).Parallelize(2, nil)
			stats := region.ToTable(p, tbl)
			region.Merge("merge").Discard()
			return stats
		}},
		{"merge-tuned", func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			region, merge := pinnedRegion(s, p, 4, 2)
			stats := region.ToTable(p, tbl)
			merge().Discard()
			return stats
		}},
		{"stream-totable", func(s *Stream, p txn.Protocol, tbl *txn.Table) *ToTableStats {
			out, stats := s.Transactions(p).ToTable(p, tbl)
			out.Discard()
			return stats
		}},
	}
	for _, c := range closers {
		t.Run(c.name, func(t *testing.T) {
			drainsCleanlyOnGroupFailure(t, c.wire)
		})
	}
}

func drainsCleanlyOnGroupFailure(t *testing.T, wire func(*Stream, txn.Protocol, *txn.Table) *ToTableStats) {
	inner := kv.NewMem()
	fault := kv.NewFault(inner)
	badDisk := errors.New("injected: EIO")
	// Fail the 4th durability point and every one after it.
	fault.FailSyncAt(4, badDisk)

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("t", fault, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	group, err := ctx.CreateGroup("g", tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := txn.NewSI(ctx)

	const elements, commitEvery = 400, 10
	top := New("failstop")
	src := top.Source("gen", func(emit func(Element)) error {
		for i := 0; i < elements; i++ {
			emit(DataElement(Tuple{Key: "k" + string(rune('a'+i%7)), Value: []byte{byte(i)}}))
		}
		return nil
	})
	stats := wire(src.Punctuate(commitEvery), p, tbl)

	// The run must TERMINATE (a wedged spine worker would hang the test)
	// and surface the fail-stop error through the region's error path.
	err = top.Run()
	if err == nil {
		t.Fatal("expected the topology to fail")
	}
	if !errors.Is(err, txn.ErrGroupFailed) || !errors.Is(err, badDisk) {
		t.Fatalf("topology error = %v, want ErrGroupFailed wrapping the injected EIO", err)
	}
	if n := len(top.errs); n != 1 {
		t.Fatalf("topology recorded %d errors, want exactly 1: %v", n, top.errs)
	}

	if group.Err() == nil {
		t.Fatal("group not poisoned")
	}
	commits, aborts := stats.Commits.Load(), stats.Aborts.Load()
	if commits == 0 {
		t.Fatal("no commit succeeded before the injected failure")
	}
	if aborts == 0 {
		t.Fatal("no post-failure boundary was drained as an abort")
	}
	if commits+aborts != elements/commitEvery {
		t.Fatalf("commits(%d)+aborts(%d) != %d transactions", commits, aborts, elements/commitEvery)
	}
	txns, _ := group.CommitStats()
	if int64(txns) != commits {
		t.Fatalf("group committed %d txns, stats acked %d", txns, commits)
	}

	// No post-failure commit was acknowledged: a crash + reopen recovers
	// a watermark equal to the last acknowledged commit — nothing less
	// (acked durable work lost) and nothing more (unacked work leaked).
	lastAcked := group.LastCTS()
	re, err := fault.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ctx2 := txn.NewContext()
	tbl2, err := ctx2.CreateTable("t", re, txn.TableOptions{SyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	group2, err := ctx2.CreateGroup("g", tbl2)
	if err != nil {
		t.Fatal(err)
	}
	if group2.LastCTS() != lastAcked {
		t.Fatalf("recovered watermark %d != last acknowledged commit %d", group2.LastCTS(), lastAcked)
	}
}
