package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"sistream/internal/stream"
	"sistream/internal/txn"
)

// PipelineConfig parameterizes the end-to-end pipeline benchmark: the
// full shared-nothing spine — ingest lanes → table → partitioned change
// feed → downstream parallel region — with the two fusions this layer
// offers toggled independently:
//
//   - Ingest.Window > 1 turns on the fused commit spine (windowed
//     transactions, cross-transaction group-commit batching at the lane
//     barrier).
//   - Fuse wires feed partition i directly into downstream lane i
//     (ParallelRegion.Reparallelize); Fuse=false inserts the explicit
//     Merge → Parallelize seam the fusion removes — an extra merge
//     goroutine, a re-route and a second punctuation barrier.
//
// The downstream region runs a per-lane Map (a small parse/fold standing
// in for consumer work) and a counting sink after its own merge barrier.
type PipelineConfig struct {
	// Ingest is the writing side (protocol, backend, elements, commit
	// interval, lanes, window — see IngestConfig).
	Ingest IngestConfig
	// Partitions is the feed partition count AND the downstream lane
	// count (the matched shape direct wiring needs). Must be >= 1.
	Partitions int
	// Fuse selects direct partition→lane wiring; false routes through
	// the unfused Merge → Parallelize seam.
	Fuse bool
}

// DefaultPipeline returns a quick in-memory configuration: 4 ingest
// lanes with a commit window of 8 over small transactions, a 4-way feed,
// fused wiring.
func DefaultPipeline() PipelineConfig {
	ic := DefaultIngest()
	ic.Lanes = 4
	ic.Window = 8
	ic.CommitEvery = 8
	return PipelineConfig{Ingest: ic, Partitions: 4, Fuse: true}
}

// PipelineResult is the outcome of one pipeline run.
type PipelineResult struct {
	Config  PipelineConfig
	Elapsed time.Duration

	// IngestElems counts tuples written by the ingest side; DownElems
	// counts data elements that reached the downstream region's sink
	// (per commit: one element per distinct written key); DownCommits
	// counts the transactions the downstream barrier re-serialized.
	IngestElems int64
	DownElems   int64
	DownCommits int64

	// ElemsPerSec is the headline metric: downstream elements delivered
	// per second of wall-clock time, measured from ingest start until
	// the feed has drained through the downstream region.
	ElemsPerSec float64

	// CommitTxns / CommitBatches are the group-commit pipeline counters
	// of the ingest group; txns/batches is the achieved cross-transaction
	// commit fan-in (1.0 = every transaction paid its own batch+fsync).
	CommitTxns    uint64
	CommitBatches uint64

	// TunedWindow is the controller's final window for AutoWindow runs
	// (0 for pinned runs); TunedGrows / TunedShrinks its resize counts.
	TunedWindow  int    `json:",omitempty"`
	TunedGrows   uint64 `json:",omitempty"`
	TunedShrinks uint64 `json:",omitempty"`
}

// CommitFanIn returns ingest transactions per group-commit batch.
func (r PipelineResult) CommitFanIn() float64 {
	if r.CommitBatches == 0 {
		return 0
	}
	return float64(r.CommitTxns) / float64(r.CommitBatches)
}

// RunPipeline executes one end-to-end cell: the ingest query writes the
// table (optionally through the fused commit spine) while the partitioned
// feed delivers every committed change into a downstream parallel region
// (fused or re-routed); the clock stops when the downstream region has
// drained every commit.
func RunPipeline(cfg PipelineConfig) (PipelineResult, error) {
	ic := cfg.Ingest
	if err := ic.validate(); err != nil {
		return PipelineResult{}, err
	}
	if cfg.Partitions < 1 {
		return PipelineResult{}, fmt.Errorf("bench: pipeline needs partitions >= 1")
	}

	store, err := OpenStore(ic.Backend, ic.Dir)
	if err != nil {
		return PipelineResult{}, err
	}
	defer store.Close()

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: ic.Sync})
	if err != nil {
		return PipelineResult{}, err
	}
	group, err := ctx.CreateGroup("ingest", tbl)
	if err != nil {
		return PipelineResult{}, err
	}
	var p txn.Protocol
	switch ic.Protocol {
	case "mvcc":
		p = txn.NewSI(ctx)
	case "s2pl":
		p = txn.NewS2PL(ctx)
	case "bocc":
		p = txn.NewBOCC(ctx)
	}

	// Downstream side: the partitioned feed region, continued fused or
	// re-routed into a region of Partitions lanes, each running a small
	// per-lane fold, closed by its own barrier into a counting sink.
	var (
		downElems   atomic.Int64
		downCommits atomic.Int64
	)
	feedTop := stream.New("pipeline-down")
	region, stopFeed := stream.FromTablePartitioned(feedTop, tbl, cfg.Partitions, nil)
	if cfg.Fuse {
		region = region.Reparallelize("repart", cfg.Partitions, nil)
	} else {
		region = region.Merge("seam").Parallelize(cfg.Partitions, nil)
	}
	region = region.Apply(func(_ int, s *stream.Stream) *stream.Stream {
		return s.Map("fold", func(tp stream.Tuple) stream.Tuple {
			// Stand-in consumer work: fold the value bytes.
			var acc uint64
			for _, b := range tp.Value {
				acc = acc*31 + uint64(b)
			}
			tp.Num = float64(acc % 1024)
			return tp
		})
	})
	region.Merge("downmerge").Sink("count", func(e stream.Element) {
		switch e.Kind {
		case stream.KindData:
			downElems.Add(1)
		case stream.KindCommit:
			downCommits.Add(1)
		}
	})

	// Ingest side: the same query RunIngest drives, spine per Window.
	value := make([]byte, ic.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	top := stream.New("pipeline-ingest")
	src := top.Source("gen", func(emit func(stream.Element)) error {
		for i := 0; i < ic.Elements; i++ {
			emit(stream.DataElement(stream.Tuple{
				Key:   keyString(uint64(i%ic.Keys), ic.KeyBytes),
				Value: value,
				Ts:    int64(i),
			}))
		}
		return nil
	})
	stats, tun := ic.toTable(src, p, tbl)

	start := time.Now()
	feedTop.Start()
	if err := top.Run(); err != nil {
		return PipelineResult{}, err
	}
	stopFeed()
	if err := feedTop.Wait(); err != nil {
		return PipelineResult{}, err
	}
	elapsed := time.Since(start)

	res := PipelineResult{
		Config:      cfg,
		Elapsed:     elapsed,
		IngestElems: stats.Writes.Load(),
		DownElems:   downElems.Load(),
		DownCommits: downCommits.Load(),
	}
	res.CommitTxns, res.CommitBatches = group.CommitStats()
	res.ElemsPerSec = float64(res.DownElems) / elapsed.Seconds()
	if ic.Window == AutoWindow {
		ts := tun.Stats()
		res.TunedWindow = ts.Window
		res.TunedGrows = ts.Grows
		res.TunedShrinks = ts.Shrinks
	}
	return res, nil
}

// PrintPipeline renders one pipeline result verbosely.
func PrintPipeline(w io.Writer, r PipelineResult) {
	c := r.Config
	wiring := "fused (partition i → lane i)"
	if !c.Fuse {
		wiring = "unfused (merge → re-route)"
	}
	window := c.Ingest.windowLabel(r.TunedWindow, r.TunedGrows, r.TunedShrinks)
	fmt.Fprintf(w, "pipeline %s protocol=%s backend=%s elements=%d commit-every=%d lanes=%d window=%s partitions=%d\n",
		wiring, c.Ingest.Protocol, c.Ingest.Backend, c.Ingest.Elements, c.Ingest.CommitEvery,
		max(c.Ingest.Lanes, 1), window, c.Partitions)
	fmt.Fprintf(w, "  end-to-end %12.0f elems/s  (%d changes of %d writes in %v, %d downstream commits)\n",
		r.ElemsPerSec, r.DownElems, r.IngestElems, r.Elapsed.Round(time.Millisecond), r.DownCommits)
	fmt.Fprintf(w, "  group ci   %d txns in %d batches (fan-in %.2f)\n", r.CommitTxns, r.CommitBatches, r.CommitFanIn())
}

// WritePipelineJSON renders a sweep of pipeline results as one indented
// JSON array (the "Pipeline" key of BENCH_ingest.json).
func WritePipelineJSON(w io.Writer, results []PipelineResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
