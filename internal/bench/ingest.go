package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"sistream/internal/kv"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// IngestConfig parameterizes the ingest benchmark: one continuous query
// pushing Elements tuples through source → punctuate → TO_TABLE with a
// commit every CommitEvery tuples. It isolates the dataflow substrate and
// the write path of the transaction layer — the per-element costs the
// vectorized engine amortizes — from reader concurrency, which the main
// benchmark (Config) covers.
type IngestConfig struct {
	// Protocol selects the concurrency control: "mvcc", "s2pl" or "bocc".
	Protocol string
	// Backend selects the base table by kv registry spec: a backend name
	// ("mem", "lsm") or a chained spec ("cache(256)+lsm", "fault+mem").
	Backend string
	// Dir is the default data directory for persistent backend layers
	// whose spec carries no inline path.
	Dir string
	// Elements is the number of data tuples pushed through the pipeline.
	Elements int
	// CommitEvery is the Punctuate batch size (tuples per transaction).
	CommitEvery int
	// Keys is the number of distinct keys cycled through.
	Keys int
	// KeyBytes / ValueBytes shape the records.
	KeyBytes   int
	ValueBytes int
	// Sync makes commits durable before visible.
	Sync bool
	// Lanes partitions the query into parallel keyed ingest lanes
	// (stream.Parallelize): tuples are hash-routed into Lanes independent
	// operator chains with per-lane TO_TABLE write paths, re-serialized
	// at a transaction-preserving merge barrier. 0 or 1 selects the
	// single-writer spine.
	Lanes int
	// Window sizes the commit spine's transaction window: up to Window
	// consecutive transactions of the query run concurrently
	// (stream.TransactionsTuned) and the barrier's commit spine submits
	// lane-complete ones to the group-commit pipeline in cross-transaction
	// batches of up to Window (stream.ParallelRegion.MergeTuned) — one
	// leader tenure, one coalesced store batch + fsync for several small
	// transactions. A positive Window pins the tuner there
	// (stream.NewFixedTuner); 0 or 1 is the serialized spine (one commit
	// per transaction). AutoWindow hands the window and linger to the
	// self-tuning controller (stream.NewAutoTuner), which sizes them from
	// observed fsync latency.
	Window int
}

// AutoWindow is the IngestConfig.Window value that selects the
// self-tuning commit-window controller instead of a pinned window.
const AutoWindow = -1

// toTable wires the ingest query's write path onto src: punctuate every
// CommitEvery tuples, transactions under the config's tuner (the
// controller for AutoWindow, pinned at Window otherwise), Lanes keyed
// lanes with a TO_TABLE into tbl each, closed by the commit spine on the
// same tuner. It returns the live writer stats and the tuner.
func (c IngestConfig) toTable(src *stream.Stream, p txn.Protocol, tbl *txn.Table) (*stream.ToTableStats, *stream.AutoTuner) {
	tun := stream.NewFixedTuner(max(c.Window, 1))
	if c.Window == AutoWindow {
		tun = stream.NewAutoTuner(stream.AutoTune{})
	}
	region := src.Punctuate(c.CommitEvery).TransactionsTuned(p, tun).Parallelize(max(c.Lanes, 1), nil)
	stats := region.ToTable(p, tbl)
	region.MergeTuned("merge", tun).Discard()
	return stats, tun
}

// windowLabel renders the config's window for reports: the pinned size,
// or the controller's final position and resize counts under AutoWindow.
func (c IngestConfig) windowLabel(tunedWindow int, grows, shrinks uint64) string {
	if c.Window == AutoWindow {
		return fmt.Sprintf("auto(→%d, +%d/-%d)", tunedWindow, grows, shrinks)
	}
	return fmt.Sprint(max(c.Window, 1))
}

// DefaultIngest returns a quick single-writer in-memory configuration.
func DefaultIngest() IngestConfig {
	return IngestConfig{
		Protocol:    "mvcc",
		Backend:     "mem",
		Elements:    1_000_000,
		CommitEvery: 100,
		Keys:        100_000,
		KeyBytes:    8,
		ValueBytes:  20,
	}
}

func (c *IngestConfig) validate() error {
	switch c.Protocol {
	case "mvcc", "s2pl", "bocc":
	default:
		return fmt.Errorf("bench: unknown protocol %q", c.Protocol)
	}
	if err := validateBackend(c.Backend); err != nil {
		return err
	}
	if c.Elements < 1 || c.CommitEvery < 1 || c.Keys < 1 {
		return fmt.Errorf("bench: non-positive size parameter")
	}
	if c.Lanes < 0 {
		return fmt.Errorf("bench: negative lane count")
	}
	if c.Window < 0 && c.Window != AutoWindow {
		return fmt.Errorf("bench: negative commit window")
	}
	if c.KeyBytes < 1 {
		c.KeyBytes = 8
	}
	if c.ValueBytes < 1 {
		c.ValueBytes = 20
	}
	return nil
}

// IngestResult is the outcome of one ingest run.
type IngestResult struct {
	Config  IngestConfig
	Elapsed time.Duration

	// Writes is the number of tuple writes applied by TO_TABLE.
	Writes int64
	// Commits / Aborts count the query's transactions.
	Commits int64
	Aborts  int64

	// ElemsPerSec is the headline metric: data elements ingested per
	// second of wall-clock time.
	ElemsPerSec float64

	// CommitTxns / CommitBatches are the group-commit pipeline counters.
	CommitTxns    uint64
	CommitBatches uint64

	// TunedWindow is the window the controller settled on by the end of
	// an AutoWindow run (0 for pinned runs); TunedGrows / TunedShrinks
	// count its up / down resizes along the way.
	TunedWindow  int    `json:",omitempty"`
	TunedGrows   uint64 `json:",omitempty"`
	TunedShrinks uint64 `json:",omitempty"`

	// CacheStats are the cache tier's counters when the backend spec
	// chains one ("cache(256)+lsm"); nil otherwise.
	CacheStats *kv.CacheStats `json:",omitempty"`
}

// RunIngest executes one ingest cell: a single writer pushing
// cfg.Elements tuples through source → punctuate → TO_TABLE → commit.
func RunIngest(cfg IngestConfig) (IngestResult, error) {
	if err := cfg.validate(); err != nil {
		return IngestResult{}, err
	}

	store, err := OpenStore(cfg.Backend, cfg.Dir)
	if err != nil {
		return IngestResult{}, err
	}
	defer store.Close()

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: cfg.Sync})
	if err != nil {
		return IngestResult{}, err
	}
	group, err := ctx.CreateGroup("ingest", tbl)
	if err != nil {
		return IngestResult{}, err
	}
	var p txn.Protocol
	switch cfg.Protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	}

	value := make([]byte, cfg.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	top := stream.New("ingest")
	src := top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < cfg.Elements; i++ {
			emit(stream.DataElement(stream.Tuple{
				Key:   keyString(uint64(i%cfg.Keys), cfg.KeyBytes),
				Value: value,
				Ts:    int64(i),
			}))
		}
		return nil
	})
	stats, tun := cfg.toTable(src, p, tbl)

	start := time.Now()
	if err := top.Run(); err != nil {
		return IngestResult{}, err
	}
	elapsed := time.Since(start)

	res := IngestResult{
		Config:  cfg,
		Elapsed: elapsed,
		Writes:  stats.Writes.Load(),
		Commits: stats.Commits.Load(),
		Aborts:  stats.Aborts.Load(),
	}
	res.CommitTxns, res.CommitBatches = group.CommitStats()
	res.ElemsPerSec = float64(res.Writes) / elapsed.Seconds()
	res.CacheStats = cacheStatsOf(store)
	if cfg.Window == AutoWindow {
		ts := tun.Stats()
		res.TunedWindow = ts.Window
		res.TunedGrows = ts.Grows
		res.TunedShrinks = ts.Shrinks
	}
	return res, nil
}

// WriteJSON renders the result as indented JSON (BENCH_ingest.json).
func (r IngestResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteIngestJSON renders a sweep of results (sibench -ingest -lanesweep
// -json) as one indented JSON array.
func WriteIngestJSON(w io.Writer, results []IngestResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// PrintIngest renders one ingest result verbosely.
func PrintIngest(w io.Writer, r IngestResult) {
	c := r.Config
	lanes := c.Lanes
	if lanes < 1 {
		lanes = 1
	}
	window := c.windowLabel(r.TunedWindow, r.TunedGrows, r.TunedShrinks)
	fmt.Fprintf(w, "ingest protocol=%s backend=%s elements=%d commit-every=%d keys=%d sync=%t lanes=%d window=%s\n",
		c.Protocol, c.Backend, c.Elements, c.CommitEvery, c.Keys, c.Sync, lanes, window)
	fmt.Fprintf(w, "  throughput %12.0f elems/s  (%d writes in %v)\n", r.ElemsPerSec, r.Writes, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  txns       commits=%d aborts=%d\n", r.Commits, r.Aborts)
	fanIn := 0.0
	if r.CommitBatches > 0 {
		fanIn = float64(r.CommitTxns) / float64(r.CommitBatches)
	}
	fmt.Fprintf(w, "  group ci   %d txns in %d batches (fan-in %.2f)\n", r.CommitTxns, r.CommitBatches, fanIn)
	if cs := r.CacheStats; cs != nil {
		fmt.Fprintf(w, "  cache      hits=%d misses=%d evictions=%d dirty-flushed=%d resident=%d\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.DirtyFlushed, cs.Resident)
	}
}
