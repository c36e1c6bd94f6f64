package bench

import (
	"errors"
	"fmt"
	"io"
	"time"

	"sistream/internal/stream"
	"sistream/internal/txn"
)

// FaultsConfig parameterizes the fault-injection smoke run (sibench
// -faults): the ingest pipeline over a kv.Fault-wrapped backend, with a
// sticky sync failure injected at a durability point mid-run. It
// measures how long the topology takes to reach fail-stop — from the
// first injected failure to a fully drained Run() — and verifies the
// acknowledgment invariant: no commit is acked at or after the failure.
type FaultsConfig struct {
	// Ingest is the pipeline shape (protocol, backend, elements, commit
	// interval, lanes, window). Sync is forced on: without synchronous
	// commits there are no durability points to fail.
	Ingest IngestConfig
	// FailAtSync injects a sticky error at the nth durability point
	// (default: halfway through the expected commit count).
	FailAtSync int
}

// FaultsResult is the outcome of one fault-injection run.
type FaultsResult struct {
	Config  FaultsConfig
	Elapsed time.Duration

	// Commits / Aborts as acked by the pipeline: Commits all predate the
	// injected failure, Aborts are the post-failure boundaries drained
	// under fail-stop.
	Commits int64
	Aborts  int64
	// Failure is the topology's surfaced error (wrapping
	// txn.ErrGroupFailed and the injected cause).
	Failure string
	// FailStopLatency is the wall-clock time from the first injected sync
	// failure to the pipeline being fully drained — the time the system
	// takes to stop cleanly once the disk turns bad.
	FailStopLatency time.Duration
	// RecoveredCTS is the watermark a crash+reopen recovers; it must
	// equal LastAckedCTS (no acked commit lost, no unacked one leaked).
	RecoveredCTS, LastAckedCTS uint64
}

// RunFaults executes one fault-injection smoke run. The returned error
// reports harness problems only — the injected failure itself is the
// expected outcome and lands in the result; an unexpected outcome (the
// pipeline succeeding, a commit acked after the failure, recovery
// disagreeing with the acks) is an error too, since the whole point is
// enforcing those invariants.
func RunFaults(cfg FaultsConfig) (FaultsResult, error) {
	icfg := cfg.Ingest
	icfg.Sync = true
	if icfg.Window == AutoWindow {
		// The failure point is sized from a known fan-in; the smoke runs
		// the serialized spine rather than the controller.
		icfg.Window = 1
	}
	if err := icfg.validate(); err != nil {
		return FaultsResult{}, err
	}

	// The fault wrapper chains over whatever backend the config names —
	// any registered spec works, "fault+mem", "fault+cache(256)+lsm", ...
	store, err := OpenStore("fault+"+icfg.Backend, icfg.Dir)
	if err != nil {
		return FaultsResult{}, err
	}
	defer store.Close()
	fault := store.FaultLayer()

	failAt := cfg.FailAtSync
	if failAt <= 0 {
		// Default: roughly halfway through the run's durability points.
		// Under SyncCommits every group-commit batch is one sync, and a
		// batch coalesces up to Window commits, so divide the commit count
		// by the worst-case fan-in to stay within the run.
		failAt = icfg.Elements / icfg.CommitEvery / max(icfg.Window, 1) / 2
		if failAt < 1 {
			failAt = 1
		}
	}
	injected := errors.New("bench: injected sticky sync failure (EIO)")
	fault.FailSyncAt(failAt, injected)

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: true})
	if err != nil {
		return FaultsResult{}, err
	}
	group, err := ctx.CreateGroup("ingest", tbl)
	if err != nil {
		return FaultsResult{}, err
	}
	var p txn.Protocol
	switch icfg.Protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	}

	value := make([]byte, icfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	top := stream.New("faults")
	src := top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < icfg.Elements; i++ {
			emit(stream.DataElement(stream.Tuple{
				Key:   keyString(uint64(i%icfg.Keys), icfg.KeyBytes),
				Value: value,
				Ts:    int64(i),
			}))
		}
		return nil
	})
	stats, _ := icfg.toTable(src, p, tbl)

	start := time.Now()
	runErr := top.Run()
	elapsed := time.Since(start)
	drained := time.Now()

	res := FaultsResult{
		Config:       cfg,
		Elapsed:      elapsed,
		Commits:      stats.Commits.Load(),
		Aborts:       stats.Aborts.Load(),
		LastAckedCTS: uint64(group.LastCTS()),
	}
	if runErr == nil {
		return res, fmt.Errorf("bench: pipeline succeeded despite injected failure at sync %d", failAt)
	}
	res.Failure = runErr.Error()
	if !errors.Is(runErr, txn.ErrGroupFailed) || !errors.Is(runErr, injected) {
		return res, fmt.Errorf("bench: topology error %v does not wrap ErrGroupFailed and the injected cause", runErr)
	}
	fs := fault.Stats()
	if fs.FirstSyncFailure.IsZero() {
		return res, fmt.Errorf("bench: fault store recorded no sync failure")
	}
	res.FailStopLatency = drained.Sub(fs.FirstSyncFailure)

	// The acknowledgment invariant, checked the hard way: crash the store,
	// reopen, and compare the recovered watermark against the acks.
	re, err := fault.Reopen()
	if err != nil {
		return res, err
	}
	defer re.Close()
	ctx2 := txn.NewContext()
	tbl2, err := ctx2.CreateTable("ingest", re, txn.TableOptions{SyncCommits: true})
	if err != nil {
		return res, err
	}
	group2, err := ctx2.CreateGroup("ingest", tbl2)
	if err != nil {
		return res, err
	}
	res.RecoveredCTS = uint64(group2.LastCTS())
	if res.RecoveredCTS != res.LastAckedCTS {
		return res, fmt.Errorf("bench: recovered watermark %d != last acked commit %d — an ack was lost or leaked",
			res.RecoveredCTS, res.LastAckedCTS)
	}
	if txns, _ := group.CommitStats(); int64(txns) != res.Commits {
		return res, fmt.Errorf("bench: group committed %d txns but pipeline acked %d", txns, res.Commits)
	}
	return res, nil
}

// PrintFaults renders one fault-injection result.
func PrintFaults(w io.Writer, r FaultsResult) {
	c := r.Config.Ingest
	fmt.Fprintf(w, "faults protocol=%s backend=%s elements=%d commit-every=%d lanes=%d window=%d fail-at-sync=%d\n",
		c.Protocol, c.Backend, c.Elements, c.CommitEvery, max(c.Lanes, 1), max(c.Window, 1), r.Config.FailAtSync)
	fmt.Fprintf(w, "  fail-stop  %v from first injected sync failure to full drain\n", r.FailStopLatency.Round(time.Microsecond))
	fmt.Fprintf(w, "  txns       commits=%d (all pre-failure) aborts=%d (drained under fail-stop)\n", r.Commits, r.Aborts)
	fmt.Fprintf(w, "  recovery   watermark %d == last acked commit %d (no ack lost or leaked)\n", r.RecoveredCTS, r.LastAckedCTS)
	fmt.Fprintf(w, "  failure    %s\n", r.Failure)
}
