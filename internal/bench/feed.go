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

// FeedConfig parameterizes the change-feed benchmark: the ingest pipeline
// of IngestConfig writing a table, with a TO_STREAM change feed attached
// that a downstream consumer drains concurrently. It measures the
// table→stream half of an end-to-end pipeline — the stage the partitioned
// feed parallelizes.
type FeedConfig struct {
	// Ingest is the writing side (protocol, backend, elements, commit
	// interval, lanes — see IngestConfig).
	Ingest IngestConfig
	// Partitions selects the feed shape: 0 runs the sequential ToStream
	// path (single commit watcher — the baseline), >= 1 runs the
	// partitioned feed (FromTablePartitioned) with that many per-partition
	// watchers merged through the lane barrier.
	Partitions int
}

// DefaultFeed returns a quick in-memory configuration: the DefaultIngest
// writer with the sequential feed attached.
func DefaultFeed() FeedConfig {
	return FeedConfig{Ingest: DefaultIngest()}
}

// FeedResult is the outcome of one feed run.
type FeedResult struct {
	Config  FeedConfig
	Elapsed time.Duration

	// IngestElems is the number of tuples written by the ingest side;
	// FeedElems is the number of change elements the feed delivered
	// downstream (per commit: one element per distinct written key).
	IngestElems int64
	FeedElems   int64
	// FeedCommits counts the transactions the feed delivered: COMMIT
	// punctuations on the partitioned path, distinct commit timestamps on
	// the sequential one.
	FeedCommits int64

	// ElemsPerSec is the headline metric: feed elements delivered per
	// second of wall-clock time, measured from ingest start until the
	// feed has drained every commit.
	ElemsPerSec float64
}

// RunFeed executes one feed cell: the ingest query writes the table while
// the configured change feed delivers the committed changes to a counting
// sink; the clock stops when the feed has drained. The ingest and feed
// topologies run concurrently, so the measurement includes the feed's
// ability (or failure) to keep pace with the writer.
func RunFeed(cfg FeedConfig) (FeedResult, error) {
	ic := cfg.Ingest
	if err := ic.validate(); err != nil {
		return FeedResult{}, err
	}
	if cfg.Partitions < 0 {
		return FeedResult{}, fmt.Errorf("bench: negative partition count")
	}

	store, err := OpenStore(ic.Backend, ic.Dir)
	if err != nil {
		return FeedResult{}, err
	}
	defer store.Close()

	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", store, txn.TableOptions{SyncCommits: ic.Sync})
	if err != nil {
		return FeedResult{}, err
	}
	if _, err := ctx.CreateGroup("ingest", tbl); err != nil {
		return FeedResult{}, err
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

	// Feed side: attach before the first commit so no change is missed.
	var (
		feedElems   atomic.Int64
		feedCommits atomic.Int64
		lastCTS     int64
	)
	feedTop := stream.New("feed")
	var stopFeed func()
	count := func(e stream.Element) {
		switch e.Kind {
		case stream.KindData:
			feedElems.Add(1)
			// Sequential path: no punctuations, count commits by cts runs.
			if cfg.Partitions == 0 && e.Tuple.Ts != lastCTS {
				lastCTS = e.Tuple.Ts
				feedCommits.Add(1)
			}
		case stream.KindCommit:
			feedCommits.Add(1)
		}
	}
	if cfg.Partitions >= 1 {
		region, stop := stream.FromTablePartitioned(feedTop, tbl, cfg.Partitions, nil)
		stopFeed = stop
		region.Merge("feedmerge").Sink("count", count)
	} else {
		s, stop := stream.ToStream(feedTop, tbl, p)
		stopFeed = stop
		s.Sink("count", count)
	}

	// Ingest side: the same query RunIngest drives.
	value := make([]byte, ic.ValueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	top := stream.New("ingest")
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
	region := src.Punctuate(ic.CommitEvery).Transactions(p).Parallelize(max(ic.Lanes, 1), nil)
	stats := region.ToTable(p, tbl)
	region.Merge("merge").Discard()

	start := time.Now()
	feedTop.Start()
	if err := top.Run(); err != nil {
		return FeedResult{}, err
	}
	stopFeed()
	if err := feedTop.Wait(); err != nil {
		return FeedResult{}, err
	}
	elapsed := time.Since(start)

	res := FeedResult{
		Config:      cfg,
		Elapsed:     elapsed,
		IngestElems: stats.Writes.Load(),
		FeedElems:   feedElems.Load(),
		FeedCommits: feedCommits.Load(),
	}
	res.ElemsPerSec = float64(res.FeedElems) / elapsed.Seconds()
	return res, nil
}

// PrintFeed renders one feed result verbosely.
func PrintFeed(w io.Writer, r FeedResult) {
	c := r.Config
	shape := "sequential (single watcher)"
	if c.Partitions >= 1 {
		shape = fmt.Sprintf("partitioned (%d watchers)", c.Partitions)
	}
	fmt.Fprintf(w, "feed %s protocol=%s backend=%s elements=%d commit-every=%d lanes=%d\n",
		shape, c.Ingest.Protocol, c.Ingest.Backend, c.Ingest.Elements, c.Ingest.CommitEvery, max(c.Ingest.Lanes, 1))
	fmt.Fprintf(w, "  feed throughput %12.0f elems/s  (%d changes of %d writes in %v)\n",
		r.ElemsPerSec, r.FeedElems, r.IngestElems, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "  feed commits    %d\n", r.FeedCommits)
}

// WriteFeedJSON renders a sweep of feed results as one indented JSON
// array (the feed half of BENCH_ingest.json).
func WriteFeedJSON(w io.Writer, results []FeedResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
