package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/stream"
	"sistream/internal/txn"
)

// The mixed benchmark (sibench -mixed): one ingest spine — the exact
// pipeline RunIngest builds — with concurrent analytical readers layered
// on top: full snapshot scans (lane-parallel, txn.Snapshot), point-read
// bursts, and secondary-index lookups, all against the table the spine
// is writing. It measures the read path's wait-free claim in the
// presence of a saturating writer: reader throughput AND the ingest
// throughput it leaves intact.

// mixedBuckets is the index-key domain of the mixed benchmark's
// secondary index: values map to one of 16 buckets.
const mixedBuckets = 16

// mixedBucketNames are the precomputed index keys ("b00".."b15").
var mixedBucketNames = func() [mixedBuckets]string {
	var out [mixedBuckets]string
	for i := range out {
		out[i] = fmt.Sprintf("b%02d", i)
	}
	return out
}()

// mixedExtract derives the benchmark index key: the bucket of the
// value's first byte. Rewrites of a key cycle its bucket, so index
// maintenance exercises the remove+add path, not just inserts.
func mixedExtract(_ string, value []byte) (string, bool) {
	if len(value) == 0 {
		return "", false
	}
	return mixedBucketNames[int(value[0])%mixedBuckets], true
}

// MixedConfig parameterizes one mixed read/write cell.
type MixedConfig struct {
	// Ingest is the write-side configuration (the spine is wired exactly
	// as RunIngest wires it).
	Ingest IngestConfig
	// Index creates a secondary index ("bucket") on the ingest table,
	// maintained transactionally for the whole run. Off, the cell is an
	// ingest-only baseline directly comparable to RunIngest.
	Index bool
	// Scanners / PointReaders / IndexReaders are concurrent reader
	// goroutines running for the duration of the ingest: full snapshot
	// scans, point-read bursts (64 keys per snapshot), and index lookups
	// (IndexReaders requires Index).
	Scanners     int
	PointReaders int
	IndexReaders int
	// ScanLanes parallelizes each scanner's snapshot scan
	// (txn.Snapshot.ParallelScan); 0 or 1 scans sequentially.
	ScanLanes int
}

// MixedResult is the outcome of one mixed cell: the embedded ingest
// metrics plus the reader-side counters.
type MixedResult struct {
	Config MixedConfig
	Ingest IngestResult

	// Scans counts completed snapshot scans; ScannedRows the rows they
	// saw; ScanRowsPerSec the aggregate scan throughput over the run.
	Scans          int64
	ScannedRows    int64
	ScanRowsPerSec float64

	// PointReads / PointHits count snapshot point reads and the ones
	// that found a visible row.
	PointReads int64
	PointHits  int64

	// IndexLookups / IndexRows count reader-side index lookups and the
	// rows they returned; IndexStats are the index's own counters
	// (maintenance puts/deletes included). Zero-valued without Index.
	IndexLookups int64
	IndexRows    int64
	IndexStats   txn.IndexStats

	// Plan is the pipeline's EXPLAIN listing, captured after the run
	// (stream.Explain). Excluded from JSON reports.
	Plan string `json:"-"`
}

// RunMixed executes one mixed read/write cell: the RunIngest pipeline
// with cfg's readers running concurrently against the ingest table.
func RunMixed(cfg MixedConfig) (MixedResult, error) {
	icfg := cfg.Ingest
	if err := icfg.validate(); err != nil {
		return MixedResult{}, err
	}
	if cfg.Scanners < 0 || cfg.PointReaders < 0 || cfg.IndexReaders < 0 {
		return MixedResult{}, fmt.Errorf("bench: negative reader count")
	}
	if cfg.IndexReaders > 0 && !cfg.Index {
		return MixedResult{}, fmt.Errorf("bench: IndexReaders requires Index")
	}

	store, err := OpenStore(icfg.Backend, icfg.Dir)
	if err != nil {
		return MixedResult{}, err
	}
	defer store.Close()

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: icfg.Sync})
	if err != nil {
		return MixedResult{}, err
	}
	group, err := ctx.CreateGroup("ingest", tbl)
	if err != nil {
		return MixedResult{}, err
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
	var ix *txn.Index
	if cfg.Index {
		if ix, err = tbl.CreateIndex("bucket", mixedExtract); err != nil {
			return MixedResult{}, err
		}
	}

	// One value per bucket: rewrites of a key cycle through them, so the
	// index sees remove+add churn, not just first-write inserts. The
	// slices are immutable once built (elements share them by reference).
	var values [mixedBuckets][]byte
	for b := range values {
		v := make([]byte, icfg.ValueBytes)
		for i := range v {
			v[i] = byte('a' + i%26)
		}
		v[0] = byte(b)
		values[b] = v
	}

	top := stream.New("mixed")
	src := top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < icfg.Elements; i++ {
			// The bucket term i + i/Keys cycles a key's bucket across its
			// rewrites even when Keys divides the bucket count.
			emit(stream.DataElement(stream.Tuple{
				Key:   keyString(uint64(i%icfg.Keys), icfg.KeyBytes),
				Value: values[(i+i/icfg.Keys)%mixedBuckets],
				Ts:    int64(i),
			}))
		}
		return nil
	})
	stats, tun := icfg.toTable(src, p, tbl)

	// Readers: run until the ingest finishes, each read under its own
	// pinned snapshot (released promptly so the GC horizon keeps moving).
	// Each reader pauses readerPace between snapshots — the readers model
	// paced analytical clients (dashboards, periodic lookups), and without
	// the pause a small machine would measure raw scheduler time-slicing
	// between spinning readers and the writer instead of read-path
	// interference. The pause is far below any single scan's duration, so
	// reader throughput is still snapshot-bound on multi-core machines.
	var (
		stop                            = make(chan struct{})
		readers                         sync.WaitGroup
		scans, scannedRows              atomic.Int64
		pointReads, pointHits           atomic.Int64
		indexLookups, indexRowsReturned atomic.Int64

		readerErrMu sync.Mutex
		readerErr   error
	)
	failReader := func(err error) {
		readerErrMu.Lock()
		if readerErr == nil {
			readerErr = err
		}
		readerErrMu.Unlock()
	}
	const readerPace = time.Millisecond
	stopped := func() bool {
		select {
		case <-stop:
			return true
		case <-time.After(readerPace):
			return false
		}
	}
	scanLanes := cfg.ScanLanes
	if scanLanes < 1 {
		scanLanes = 1
	}
	for r := 0; r < cfg.Scanners; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stopped() {
				snap, err := ctx.Snapshot(tbl)
				if err != nil {
					failReader(fmt.Errorf("scanner: %w", err))
					return
				}
				var rows atomic.Int64
				_ = snap.ParallelScan(tbl, scanLanes, func(string, []byte) bool {
					rows.Add(1)
					return true
				})
				snap.Release()
				scans.Add(1)
				scannedRows.Add(rows.Load())
			}
		}()
	}
	for r := 0; r < cfg.PointReaders; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			j := seed
			for !stopped() {
				snap, err := ctx.Snapshot(tbl)
				if err != nil {
					failReader(fmt.Errorf("point-reader: %w", err))
					return
				}
				for b := 0; b < 64; b++ {
					j = j*2862933555777941757 + 3037000493 // splmix64-style LCG step
					key := keyString(j%uint64(icfg.Keys), icfg.KeyBytes)
					if _, ok, _ := snap.Get(tbl, key); ok {
						pointHits.Add(1)
					}
					pointReads.Add(1)
				}
				snap.Release()
			}
		}(uint64(r) + 1)
	}
	for r := 0; r < cfg.IndexReaders; r++ {
		readers.Add(1)
		go func(seed int) {
			defer readers.Done()
			b := seed
			for !stopped() {
				snap, err := ctx.Snapshot(tbl)
				if err != nil {
					failReader(fmt.Errorf("index-reader: %w", err))
					return
				}
				n := int64(0)
				_ = snap.Lookup(ix, mixedBucketNames[b%mixedBuckets], func(string, []byte) bool {
					n++
					return true
				})
				snap.Release()
				indexLookups.Add(1)
				indexRowsReturned.Add(n)
				b++
			}
		}(r)
	}

	start := time.Now()
	runErr := top.Run()
	elapsed := time.Since(start)
	close(stop)
	readers.Wait()
	if runErr != nil {
		return MixedResult{}, runErr
	}
	if readerErr != nil {
		return MixedResult{}, readerErr
	}

	res := MixedResult{
		Config: cfg,
		Ingest: IngestResult{
			Config:  icfg,
			Elapsed: elapsed,
			Writes:  stats.Writes.Load(),
			Commits: stats.Commits.Load(),
			Aborts:  stats.Aborts.Load(),
		},
		Scans:        scans.Load(),
		ScannedRows:  scannedRows.Load(),
		PointReads:   pointReads.Load(),
		PointHits:    pointHits.Load(),
		IndexLookups: indexLookups.Load(),
		IndexRows:    indexRowsReturned.Load(),
		Plan:         stream.Explain(top),
	}
	res.Ingest.CommitTxns, res.Ingest.CommitBatches = group.CommitStats()
	res.Ingest.ElemsPerSec = float64(res.Ingest.Writes) / elapsed.Seconds()
	res.Ingest.CacheStats = cacheStatsOf(store)
	if icfg.Window == AutoWindow {
		ts := tun.Stats()
		res.Ingest.TunedWindow = ts.Window
		res.Ingest.TunedGrows = ts.Grows
		res.Ingest.TunedShrinks = ts.Shrinks
	}
	res.ScanRowsPerSec = float64(res.ScannedRows) / elapsed.Seconds()
	if ix != nil {
		res.IndexStats = ix.Stats()
	}
	return res, nil
}

// PrintMixed renders one mixed result verbosely, the ingest block first,
// then the reader-side counters, then the pipeline's EXPLAIN plan.
func PrintMixed(w io.Writer, r MixedResult) {
	c := r.Config
	fmt.Fprintf(w, "mixed index=%t scanners=%d point-readers=%d index-readers=%d scan-lanes=%d\n",
		c.Index, c.Scanners, c.PointReaders, c.IndexReaders, max(c.ScanLanes, 1))
	PrintIngest(w, r.Ingest)
	fmt.Fprintf(w, "  scan       snapshots=%d rows=%d  %12.0f rows/s\n", r.Scans, r.ScannedRows, r.ScanRowsPerSec)
	fmt.Fprintf(w, "  point      reads=%d hits=%d\n", r.PointReads, r.PointHits)
	if c.Index {
		fmt.Fprintf(w, "  index      lookups=%d rows=%d puts=%d deletes=%d maintained-lookups=%d hits=%d\n",
			r.IndexLookups, r.IndexRows, r.IndexStats.Puts, r.IndexStats.Deletes, r.IndexStats.Lookups, r.IndexStats.Hits)
	}
	if r.Plan != "" {
		fmt.Fprintf(w, "  plan:\n")
		for _, line := range splitLines(r.Plan) {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// splitLines splits s on newlines, dropping a trailing empty line.
func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// WriteMixedJSON renders a sweep of mixed results as one indented JSON
// array (sibench -mixed -json).
func WriteMixedJSON(w io.Writer, results []MixedResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
