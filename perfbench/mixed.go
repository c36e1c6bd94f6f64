package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/kv"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// mixed_indexed: the ingest spine on the memory backend, committing every
// 100 tuples at a plain merge barrier into a table with a 16-bucket
// secondary index, while one open-loop reader client queries the table.
const (
	mixElements = 200_000
	mixTxnSize  = 100
	mixKeys     = 100_000
	mixLanes    = 2
	// The reader: mixRate requests per second, each a burst of
	// mixPointReads point reads (90%), one bucket lookup (8%) or one
	// ParallelScan over mixScanLanes stripes (2%).
	mixRate        = 200
	mixPointReads  = 16
	mixScanLanes   = 2
	mixSchedule    = 4096
	mixSampleEvery = 1
)

type mixed struct {
	in   *streamInput
	reqs []readRequest
}

func newMixed(seed int64) *mixed {
	return &mixed{
		in:   mixedInput(seed, mixElements, mixTxnSize, mixKeys),
		reqs: readerSchedule(seed, mixSchedule, mixPointReads, mixKeys),
	}
}

func extractBucket(_ string, value []byte) (string, bool) {
	if len(value) == 0 {
		return "", false
	}
	return bucketNames[bucketOf(value)], true
}

// readerStats is what the open-loop reader measured, each latency from
// the request's due time.
type readerStats struct {
	point, lookup, scan []float64 // µs, ms, ms
	lateMaxMS           float64
	requests            int64
	err                 error
}

// mixedRig is one set-up of the workload: the store, the indexed table
// and the ingest topology, wired to the timestamps the run records.
type mixedRig struct {
	opened *kv.OpenedStore
	ctx    *txn.Context
	tbl    *txn.Table
	group  *txn.Group
	ix     *txn.Index
	stats  *stream.ToTableStats
	top    *stream.Topology
	setup  time.Duration

	// Written by the source and the sink goroutines and read once the
	// topology has finished. Timestamps are ns since the base time build
	// was given.
	genNs, sinkNs []int64
	commits       int
}

// build sets the workload up: open the store, create the table and its
// index, build the topology. tr, when set, wraps the store and the
// protocol.
func (w *mixed) build(in *streamInput, base time.Time, tr *tracer) (*mixedRig, error) {
	txns := in.txns()
	r := &mixedRig{genNs: make([]int64, txns), sinkNs: make([]int64, txns)}
	opened, err := kv.Open("mem", kv.OpenOptions{})
	if err != nil {
		return nil, err
	}
	r.opened = opened
	var store kv.Store = opened
	if tr != nil {
		store = &tracedStore{Store: opened, tr: tr}
	}
	r.ctx = txn.NewContext()
	if r.tbl, err = r.ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: true}); err != nil {
		r.close()
		return nil, err
	}
	if r.group, err = r.ctx.CreateGroup("ingest", r.tbl); err != nil {
		r.close()
		return nil, err
	}
	if r.ix, err = r.tbl.CreateIndex("bucket", extractBucket); err != nil {
		r.close()
		return nil, err
	}
	var p txn.Protocol = txn.NewSI(r.ctx)
	if tr != nil {
		p = newTracedProtocol(p, tr)
	}

	r.top = stream.New("mixed")
	src := r.top.Source("gen", func(emit func(stream.Element)) error {
		for i, t := range in.tuples {
			if i%in.txnSize == in.txnSize-1 {
				r.genNs[i/in.txnSize] = int64(time.Since(base))
			}
			emit(stream.DataElement(t))
		}
		return nil
	})
	region := src.Punctuate(in.txnSize).Transactions(p).Parallelize(mixLanes, nil)
	r.stats = region.ToTable(p, r.tbl)
	// Merge commits at its barrier before it emits the COMMIT, so the
	// sink sees a transaction's COMMIT only once it is visible.
	region.Merge("merge").Sink("visible", func(e stream.Element) {
		if e.Kind == stream.KindCommit {
			if r.commits < txns {
				r.sinkNs[r.commits] = int64(time.Since(base))
			}
			r.commits++
		}
	})
	r.setup = time.Since(base)
	return r, nil
}

func (r *mixedRig) close() { _ = r.opened.Close() } // the memory store is discarded

// probe sets the workload up once more and tears it down without input.
func (w *mixed) probe() (time.Duration, error) {
	r, err := w.build(&streamInput{txnSize: mixTxnSize}, time.Now(), nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	return r.setup, r.top.Run()
}

func (w *mixed) trial(traced bool) (*trialOut, error) {
	in := w.in
	txns := in.txns()
	heap := startHeapSampler(5 * time.Millisecond)
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base, txns, mixSampleEvery)
	}
	r, err := w.build(in, base, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()

	// --- measured run: ingest to completion, the reader alongside.
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	stop := make(chan struct{})
	var rs readerStats
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		rs = w.read(r.ctx, r.tbl, r.ix, tr, stop)
	}()
	runStart := time.Now()
	runErr := r.top.Run()
	runS := time.Since(runStart).Seconds()
	close(stop)
	readerDone.Wait()
	cpuS := cpuSeconds() - cpu0
	rt := rt0.to(readRuntime())
	heapMB, heapPeakMB := heap.finish()
	runtime.KeepAlive(r) // the heap figure counts the rig's state
	if runErr != nil {
		return nil, runErr
	}

	committed := r.stats.Commits.Load()
	out := &trialOut{
		setupS:    r.setup.Seconds(),
		attempted: int64(txns) + rs.requests,
		failed:    int64(txns) - committed,
	}
	if rs.err != nil {
		out.failed++
	}
	out.check(committed == int64(txns), "mixed_indexed: ingest commits %d, want %d (elements/100)", committed, txns)
	out.check(r.commits == txns, "mixed_indexed: sink saw %d commits, want %d", r.commits, txns)
	out.check(rs.err == nil, "mixed_indexed: reader error: %v", rs.err)
	if err := checkIndex(r.ctx, r.tbl, r.ix); err != nil {
		out.check(false, "mixed_indexed: %v", err)
	}
	if len(out.problems) > 0 {
		return out, nil
	}

	lat := make([]float64, txns)
	for k := range lat {
		lat[k] = float64(r.sinkNs[k]-r.genNs[k]) / 1e6
	}
	out.elems, out.txns, out.elapsedS = float64(r.stats.Writes.Load()), float64(committed), runS
	out.cpuS, out.heapMB, out.heapPeakMB, out.commitMS = cpuS, heapMB, heapPeakMB, lat
	out.named = map[string]float64{
		"ingest_elems_per_s":    out.elems / runS,
		"commit_latency_p50_ms": median(append([]float64(nil), lat...)),
		"point_read_p50_us":     median(append([]float64(nil), rs.point...)),
		"index_lookup_p50_ms":   median(append([]float64(nil), rs.lookup...)),
		"scan_p50_ms":           median(append([]float64(nil), rs.scan...)),
		"reader_late_max_ms":    rs.lateMaxMS,
	}
	out.samples = map[string][]float64{
		"commit_latency": lat,
		"point_read":     rs.point,
		"index_lookup":   rs.lookup,
		"scan":           rs.scan,
	}

	if traced {
		m := map[string]float64{}
		tr.callMetrics(m, float64(in.userBytes))
		groupMetrics(m, r.group)
		tableMetrics(m, r.tbl)
		indexMetrics(m, r.ix)
		m["stream.run_s"] = runS
		m["stream.totable.commits"] = float64(committed)
		m["reader.late_max_ms"] = rs.lateMaxMS
		runtimeMetrics(m, rt, out.elems)
		st := tr.stages(r.genNs, r.sinkNs, false)
		out.stages = &st
		out.layer = m
		out.tracer = tr
	}
	return out, nil
}

// read is the open-loop reader client: request i is due at
// start + i/mixRate, whether or not request i-1 has finished, and each
// latency runs from the due time, so a stall also delays the requests
// queued behind it. It stops when stop closes.
func (w *mixed) read(ctx *txn.Context, tbl *txn.Table, ix *txn.Index, tr *tracer, stop <-chan struct{}) readerStats {
	var rs readerStats
	interval := time.Second / mixRate
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return rs
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return rs
			default:
			}
		}
		began := time.Now()
		rs.lateMaxMS = max(rs.lateMaxMS, float64(began.Sub(due))/1e6)
		req := &w.reqs[i%len(w.reqs)]
		if err := w.request(ctx, tbl, ix, tr, req); err != nil {
			rs.err = err
			return rs
		}
		rs.requests++
		lat := time.Since(due)
		switch req.kind {
		case reqPoint:
			rs.point = append(rs.point, float64(lat)/1e3)
		case reqLookup:
			rs.lookup = append(rs.lookup, float64(lat)/1e6)
		case reqScan:
			rs.scan = append(rs.scan, float64(lat)/1e6)
		}
	}
}

func (w *mixed) request(ctx *txn.Context, tbl *txn.Table, ix *txn.Index, tr *tracer, req *readRequest) error {
	t := time.Now()
	snap, err := ctx.Snapshot(tbl)
	if tr != nil {
		tr.snapOpen.since(t)
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer snap.Release()
	switch req.kind {
	case reqPoint:
		for _, k := range req.keys {
			t := time.Now()
			_, _, err := snap.Get(tbl, k)
			if tr != nil {
				tr.snapGet.since(t)
			}
			if err != nil {
				return fmt.Errorf("get: %w", err)
			}
		}
	case reqLookup:
		var rows int64
		t := time.Now()
		err := snap.Lookup(ix, req.bucket, func(string, []byte) bool { rows++; return true })
		if tr != nil {
			tr.snapLookup.since(t)
			tr.lookupRows.Add(rows)
		}
		if err != nil {
			return fmt.Errorf("lookup: %w", err)
		}
	case reqScan:
		var rows atomic.Int64
		t := time.Now()
		err := snap.ParallelScan(tbl, mixScanLanes, func(string, []byte) bool { rows.Add(1); return true })
		if tr != nil {
			tr.snapScan.since(t)
			tr.scanRows.Add(rows.Load())
		}
		if err != nil {
			return fmt.Errorf("scan: %w", err)
		}
	}
	return nil
}

// checkIndex verifies at one final snapshot that every bucket's index
// lookup returns exactly the rows of a filtered full scan.
func checkIndex(ctx *txn.Context, tbl *txn.Table, ix *txn.Index) error {
	snap, err := ctx.Snapshot(tbl)
	if err != nil {
		return err
	}
	defer snap.Release()
	var want [buckets]map[string]string
	for b := range want {
		want[b] = map[string]string{}
	}
	if err := snap.Scan(tbl, func(k string, v []byte) bool {
		want[bucketOf(v)][k] = string(v)
		return true
	}); err != nil {
		return err
	}
	for b := range want {
		got := map[string]string{}
		if err := snap.Lookup(ix, bucketNames[b], func(k string, v []byte) bool {
			got[k] = string(v)
			return true
		}); err != nil {
			return err
		}
		if len(got) != len(want[b]) {
			return fmt.Errorf("bucket %s: lookup returned %d rows, filtered scan %d", bucketNames[b], len(got), len(want[b]))
		}
		for k, v := range want[b] {
			if got[k] != v {
				return fmt.Errorf("bucket %s: row %q differs between lookup and scan", bucketNames[b], k)
			}
		}
	}
	return nil
}
