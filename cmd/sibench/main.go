// Command sibench regenerates the paper's evaluation (Section 5): the two
// panels of Figure 4 (throughput vs. contention for 4 and 24 concurrent
// ad-hoc queries under MVCC, S2PL and BOCC), the prose claims C1–C3, and
// the ablation experiments listed in DESIGN.md.
//
// Usage:
//
//	sibench -figure 4                    # both Figure 4 panels
//	sibench -claim c1|c2|c3              # Section 5 prose claims
//	sibench -cell -protocol mvcc -theta 2 -readers 24   # one cell
//	sibench -scaling                     # commit-path scaling: writers 1..16
//	sibench -ingest                      # dataflow ingest rate (elems/s)
//	sibench -ingest -lanes 4             # ... with 4 parallel keyed lanes
//	sibench -ingest -lanes 4 -window 8   # ... with the fused commit spine
//	sibench -ingest -lanes 4 -window auto  # ... with the self-tuning spine
//	sibench -ingest -json                # ... as one JSON object
//	sibench -ingest -lanesweep -json     # lanes 1,2,4,8 as a JSON array
//	sibench -mixed                       # mixed read/write: ingest spine +
//	                                     # concurrent snapshot scans, point
//	                                     # reads and index lookups (baseline
//	                                     # cell + mixed cell)
//	sibench -mixed -scanlanes 8 -json    # ... as a JSON array
//	sibench -faults                      # fault-injection smoke: sticky sync
//	                                     # failure mid-run; time-to-fail-stop,
//	                                     # no post-failure commit acked
//	sibench -faults -failat 100          # ... failing the 100th fsync
//	sibench -feed                        # table→stream feed rate, sequential watcher
//	sibench -feed -partitions 4          # ... through a 4-way partitioned feed
//	sibench -feed -partsweep -json       # seq,1,2,4,8 partitions as a JSON array
//	sibench -pipeline                    # end-to-end: ingest lanes → table →
//	                                     # feed partitions → downstream lanes
//	sibench -pipeline -fuse=false        # ... through the unfused merge seam
//	sibench -pipeline -pipesweep -json   # fused/unfused × window 1,8 as JSON
//	sibench -adaptive                    # self-tuning spine vs the static
//	                                     # windows on the lsm+sync pipeline
//	sibench -benchjson -backend mem      # lane sweep + feed sweep + pipeline
//	                                     # sweep + adaptive sweep + backend
//	                                     # sweep as one JSON object
//	                                     # (regenerates BENCH_ingest.json)
//	sibench -ingest -store 'cache(256)+lsm'  # ... over a chained backend spec
//	sibench -csv                         # CSV instead of tables
//
// Scale knobs: -tablesize (paper: 1000000), -duration per cell,
// -backend for the registered backend name, -store for a full chained
// spec (overrides -backend), -dir for persistent data directories.
// Backends resolve through the kv adapter registry, so any registered
// spec works: mem, lsm, cache(256)+lsm, fault+mem, ...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sistream/internal/bench"
)

func main() {
	var (
		figure    = flag.Int("figure", 0, "reproduce figure 4 (both panels)")
		claim     = flag.String("claim", "", "reproduce a Section 5 claim: c1, c2 or c3")
		cell      = flag.Bool("cell", false, "run a single cell with the flags below")
		scaling   = flag.Bool("scaling", false, "sweep concurrent writers to show group-commit scaling")
		ingest    = flag.Bool("ingest", false, "run the single-writer dataflow ingest benchmark")
		mixed     = flag.Bool("mixed", false, "run the mixed read/write benchmark: the ingest spine with concurrent snapshot scans, point reads and index lookups (ingest-only baseline cell + mixed cell)")
		scanLanes = flag.Int("scanlanes", 4, "mixed: parallel stripes per snapshot scan")
		faults    = flag.Bool("faults", false, "run the fault-injection smoke mode: ingest over a fault store, sticky sync failure mid-run; reports time-to-fail-stop and verifies no post-failure commit is acked")
		failAt    = flag.Int("failat", 0, "faults: durability point (sync) to fail at (0 = halfway)")
		elements  = flag.Int("elements", 1_000_000, "ingest: data elements pushed through the pipeline")
		every     = flag.Int("commitevery", 100, "ingest: tuples per transaction (punctuation interval)")
		keys      = flag.Int("keys", 100_000, "ingest: distinct keys cycled through")
		lanes     = flag.Int("lanes", 1, "ingest: parallel keyed lanes (1 = sequential spine)")
		window    = flag.String("window", "1", "ingest/pipeline: cross-transaction commit window (1 = serialized spine, \"auto\" = self-tuning)")
		laneSweep = flag.Bool("lanesweep", false, "ingest: sweep lanes 1,2,4,8 (JSON: array of results)")
		feed      = flag.Bool("feed", false, "run the table→stream change-feed benchmark")
		parts     = flag.Int("partitions", 0, "feed: partitioned-feed watchers (0 = sequential ToStream); pipeline: feed partitions = downstream lanes")
		partSweep = flag.Bool("partsweep", false, "feed: sweep sequential + partitions 1,2,4,8")
		pipeline  = flag.Bool("pipeline", false, "run the end-to-end pipeline benchmark (ingest lanes → table → feed → downstream lanes)")
		fuse      = flag.Bool("fuse", true, "pipeline: direct partition→lane wiring (false = unfused merge → re-route seam)")
		pipeSweep = flag.Bool("pipesweep", false, "pipeline: sweep fused/unfused × window 1,8 (honors -commitevery/-lanes; partitions = lanes)")
		adaptive  = flag.Bool("adaptive", false, "run the self-tuning spine sweep: window auto vs 1,8 on the lsm+sync pipeline")
		benchJSON = flag.Bool("benchjson", false, "run the ingest lane sweep, the feed partition sweep and the pipeline sweep, emit the BENCH_ingest.json object")
		jsonOut   = flag.Bool("json", false, "ingest/feed: JSON output")
		protocol  = flag.String("protocol", "mvcc", "mvcc | s2pl | bocc")
		backend   = flag.String("backend", "lsm", "registered backend name (mem | lsm | ...)")
		storeSpec = flag.String("store", "", "full backend spec through the kv registry, e.g. 'cache(256)+lsm' (overrides -backend)")
		dir       = flag.String("dir", "", "data directory for persistent backends (default: temp)")
		tableSize = flag.Int("tablesize", 100_000, "keys per state (paper: 1000000)")
		readers   = flag.Int("readers", 4, "concurrent ad-hoc queries")
		writers   = flag.Int("writers", 1, "continuous writer queries")
		txnOps    = flag.Int("ops", 10, "operations per transaction")
		theta     = flag.Float64("theta", 0, "Zipfian contention level")
		duration  = flag.Duration("duration", 2*time.Second, "measured interval per cell")
		sync      = flag.Bool("sync", true, "synchronous (durable) commits")
		check     = flag.Bool("check", false, "enable the multi-state consistency checker")
		csv       = flag.Bool("csv", false, "CSV output")
		states    = flag.Int("states", 2, "states per topology group")
	)
	flag.Parse()

	spec := *backend
	if *storeSpec != "" {
		spec = *storeSpec
	}

	base := bench.Default()
	base.Backend = spec
	base.TableSize = *tableSize
	base.Readers = *readers
	base.Writers = *writers
	base.TxnOps = *txnOps
	base.Theta = *theta
	base.Duration = *duration
	base.Sync = *sync
	base.Protocol = *protocol
	base.States = *states
	base.CheckConsistency = *check

	root := *dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "sibench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(root)
	}
	cellDirs := 0
	dirFor := func(string, float64) string {
		cellDirs++
		return filepath.Join(root, fmt.Sprintf("cell-%03d", cellDirs))
	}
	base.Dir = dirFor("", 0)

	icfg := bench.DefaultIngest()
	icfg.Protocol = *protocol
	icfg.Backend = spec
	icfg.Dir = base.Dir // unused by volatile specs
	icfg.Elements = *elements
	icfg.CommitEvery = *every
	icfg.Keys = *keys
	icfg.Sync = *sync
	icfg.Lanes = *lanes
	if *window == "auto" {
		icfg.Window = bench.AutoWindow
	} else {
		w, err := strconv.Atoi(*window)
		if err != nil {
			fatal(fmt.Errorf("-window wants an integer or \"auto\", got %q", *window))
		}
		icfg.Window = w
	}

	// Sweeps over the lsm backend give every cell a FRESH directory —
	// re-opening a shared one would replay earlier cells' data into the
	// measured run (recovery time, pre-populated levels), exactly like
	// the Figure 4 / scaling sweeps' per-cell dirs.
	freshDir := func() string { return dirFor("", 0) }

	switch {
	case *faults:
		res, err := bench.RunFaults(bench.FaultsConfig{Ingest: icfg, FailAtSync: *failAt})
		if err != nil {
			fatal(err)
		}
		bench.PrintFaults(os.Stdout, res)
	case *mixed:
		results := mixedSweep(icfg, *scanLanes, !*jsonOut, freshDir)
		if *jsonOut {
			if err := bench.WriteMixedJSON(os.Stdout, results); err != nil {
				fatal(err)
			}
		}
	case *benchJSON:
		runBenchJSON(icfg, freshDir)
	case *adaptive:
		runAdaptive(icfg, *jsonOut, freshDir)
	case *pipeline:
		runPipeline(icfg, *parts, *fuse, *pipeSweep, *jsonOut, freshDir)
	case *feed:
		runFeed(icfg, *parts, *partSweep, *jsonOut, freshDir)
	case *ingest:
		if *laneSweep {
			results := ingestLaneSweep(icfg, !*jsonOut, freshDir)
			if *jsonOut {
				if err := bench.WriteIngestJSON(os.Stdout, results); err != nil {
					fatal(err)
				}
			}
			return
		}
		res, err := bench.RunIngest(icfg)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			if err := res.WriteJSON(os.Stdout); err != nil {
				fatal(err)
			}
		} else {
			bench.PrintIngest(os.Stdout, res)
		}
	case *figure == 4:
		runFigure4(base, dirFor, *csv)
	case *scaling:
		runScaling(base, dirFor, *csv)
	case *claim != "":
		runClaim(*claim, base, dirFor)
	case *cell:
		res, err := bench.Run(base)
		if err != nil {
			fatal(err)
		}
		if *csv {
			bench.PrintCSV(os.Stdout, []bench.Result{res})
		} else {
			bench.PrintResult(os.Stdout, res)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// backendSweepSpecs is the backend sweep: the same ingest workload over
// the volatile store, the persistent LSM store and the cache tier
// chained over it — the honest cross-backend comparison the adapter
// registry makes possible.
var backendSweepSpecs = []string{"mem", "lsm", "cache(256)+lsm"}

// backendSweep runs the ingest benchmark across backendSweepSpecs on an
// otherwise identical workload — the "Backends" key of
// BENCH_ingest.json. freshDir supplies a new data directory per
// persistent cell.
func backendSweep(icfg bench.IngestConfig, print bool, freshDir func() string) []bench.IngestResult {
	var results []bench.IngestResult
	for _, spec := range backendSweepSpecs {
		icfg.Backend = spec
		icfg.Dir = freshDir() // fresh per cell; unused by volatile specs
		res, err := bench.RunIngest(icfg)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		if print {
			bench.PrintIngest(os.Stdout, res)
		}
	}
	return results
}

// feedSweepPartitions is the feed sweep: the sequential single-watcher
// path (FeedConfig.Partitions 0) followed by partitioned feeds of 1, 2,
// 4 and 8 watchers. partitions=1 vs sequential isolates the partitioned
// machinery's overhead (router, barrier, merge).
var feedSweepPartitions = []int{0, 1, 2, 4, 8}

// ingestLaneSweep runs the ingest benchmark across lanes 1, 2, 4, 8 —
// the ingest half of BENCH_ingest.json, shared by -lanesweep and
// -benchjson so the two cannot drift apart. freshDir supplies a new
// data directory per lsm cell.
func ingestLaneSweep(icfg bench.IngestConfig, print bool, freshDir func() string) []bench.IngestResult {
	var results []bench.IngestResult
	for _, l := range []int{1, 2, 4, 8} {
		icfg.Lanes = l
		icfg.Dir = freshDir() // fresh per cell; unused by volatile specs
		res, err := bench.RunIngest(icfg)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		if print {
			bench.PrintIngest(os.Stdout, res)
		}
	}
	return results
}

// feedPartSweep runs the change-feed benchmark across
// feedSweepPartitions — the feed half of BENCH_ingest.json, shared by
// -partsweep and -benchjson. freshDir supplies a new data directory per
// lsm cell.
func feedPartSweep(icfg bench.IngestConfig, print bool, freshDir func() string) []bench.FeedResult {
	var results []bench.FeedResult
	for _, p := range feedSweepPartitions {
		icfg.Dir = freshDir() // fresh per cell; unused by volatile specs
		res, err := bench.RunFeed(bench.FeedConfig{Ingest: icfg, Partitions: p})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		if print {
			bench.PrintFeed(os.Stdout, res)
		}
	}
	return results
}

// pipelineSweep runs the end-to-end pipeline benchmark across the fused
// spine's two toggles — direct partition→lane wiring on/off × commit
// window 1/8. Only the swept dimensions are overridden: protocol,
// backend, elements, commit interval and lane count come from icfg (the
// user's flags), with feed partitions = downstream lanes = the ingest
// lane count (the matched shape direct wiring needs). The pipeline half
// of BENCH_ingest.json, shared by -pipesweep and -benchjson (the latter
// pins the canonical small-transaction configuration itself). freshDir
// supplies a new data directory per lsm cell.
func pipelineSweep(icfg bench.IngestConfig, print bool, freshDir func() string) []bench.PipelineResult {
	parts := max(icfg.Lanes, 1)
	// This sweep IS the static windows (each cell pins its own, replacing
	// -window auto, which has its own cells in adaptiveSweep).
	var results []bench.PipelineResult
	for _, w := range []int{1, 8} {
		for _, fused := range []bool{false, true} {
			icfg.Window = w
			icfg.Dir = freshDir() // fresh per cell; unused by volatile specs
			res, err := bench.RunPipeline(bench.PipelineConfig{Ingest: icfg, Partitions: parts, Fuse: fused})
			if err != nil {
				fatal(err)
			}
			results = append(results, res)
			if print {
				bench.PrintPipeline(os.Stdout, res)
			}
		}
	}
	return results
}

// adaptiveSweep runs the self-tuning pipeline cells: the same shape as
// pipelineSweep's static-window cells, but with the ingest spine under
// the AutoTune controller — unfused and fused wiring. Comparing its
// cells against pipelineSweep's answers whether the controller found
// the static optimum (the bar: within 10% of the best static window).
// The adaptive half of BENCH_ingest.json ("Adaptive"), shared by
// -adaptive and -benchjson. freshDir supplies a new data directory per
// lsm cell.
func adaptiveSweep(icfg bench.IngestConfig, print bool, freshDir func() string) []bench.PipelineResult {
	parts := max(icfg.Lanes, 1)
	icfg.Window = bench.AutoWindow
	var results []bench.PipelineResult
	for _, fused := range []bool{false, true} {
		icfg.Dir = freshDir() // fresh per cell; unused by volatile specs
		res, err := bench.RunPipeline(bench.PipelineConfig{Ingest: icfg, Partitions: parts, Fuse: fused})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		if print {
			bench.PrintPipeline(os.Stdout, res)
		}
	}
	return results
}

// runAdaptive runs the static pipeline sweep and the adaptive cells on
// the lsm backend with synchronous commits (the regime where window
// tuning has an fsync to amortize) and renders both, so one invocation
// answers "did the controller find the static optimum?".
func runAdaptive(icfg bench.IngestConfig, jsonOut bool, freshDir func() string) {
	icfg.Backend = "lsm"
	icfg.Sync = true
	static := pipelineSweep(icfg, !jsonOut, freshDir)
	auto := adaptiveSweep(icfg, !jsonOut, freshDir)
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Pipeline []bench.PipelineResult
			Adaptive []bench.PipelineResult
		}{static, auto}); err != nil {
			fatal(err)
		}
	}
}

// runPipeline runs the end-to-end pipeline benchmark: one cell (with the
// caller's lanes/window/partitions/fuse), or the standard sweep.
func runPipeline(icfg bench.IngestConfig, partitions int, fused, sweep, jsonOut bool, freshDir func() string) {
	if sweep {
		results := pipelineSweep(icfg, !jsonOut, freshDir)
		if jsonOut {
			if err := bench.WritePipelineJSON(os.Stdout, results); err != nil {
				fatal(err)
			}
		}
		return
	}
	if partitions < 1 {
		partitions = max(icfg.Lanes, 1)
	}
	res, err := bench.RunPipeline(bench.PipelineConfig{Ingest: icfg, Partitions: partitions, Fuse: fused})
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		if err := bench.WritePipelineJSON(os.Stdout, []bench.PipelineResult{res}); err != nil {
			fatal(err)
		}
	} else {
		bench.PrintPipeline(os.Stdout, res)
	}
}

// runFeed runs the table→stream change-feed benchmark: one cell, or the
// partition sweep.
func runFeed(icfg bench.IngestConfig, partitions int, sweep, jsonOut bool, freshDir func() string) {
	if !sweep {
		res, err := bench.RunFeed(bench.FeedConfig{Ingest: icfg, Partitions: partitions})
		if err != nil {
			fatal(err)
		}
		if jsonOut {
			if err := bench.WriteFeedJSON(os.Stdout, []bench.FeedResult{res}); err != nil {
				fatal(err)
			}
		} else {
			bench.PrintFeed(os.Stdout, res)
		}
		return
	}
	results := feedPartSweep(icfg, !jsonOut, freshDir)
	if jsonOut {
		if err := bench.WriteFeedJSON(os.Stdout, results); err != nil {
			fatal(err)
		}
	}
}

// mixedSweep runs the mixed read/write benchmark as two cells on an
// identical ingest workload: first the ingest-only baseline (no index,
// no readers — RunIngest's exact pipeline through the mixed harness, so
// any index/reader overhead is measured against it, not guessed), then
// the fully mixed cell (secondary index maintained in the write path,
// plus concurrent snapshot scanners, point readers and index readers).
// The "Mixed" key of BENCH_ingest.json, shared by -mixed and -benchjson.
// freshDir supplies a new data directory per persistent cell.
func mixedSweep(icfg bench.IngestConfig, scanLanes int, print bool, freshDir func() string) []bench.MixedResult {
	cells := []bench.MixedConfig{
		{Ingest: icfg},
		{Ingest: icfg, Index: true, Scanners: 1, PointReaders: 1, IndexReaders: 1, ScanLanes: scanLanes},
	}
	var results []bench.MixedResult
	for _, cell := range cells {
		cell.Ingest.Dir = freshDir() // fresh per cell; unused by volatile specs
		res, err := bench.RunMixed(cell)
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		if print {
			bench.PrintMixed(os.Stdout, res)
		}
	}
	return results
}

// runBenchJSON regenerates the checked-in BENCH_ingest.json: the ingest
// lane sweep, the feed partition sweep, the end-to-end pipeline sweep
// (fused/unfused × commit window 1/8), the adaptive cells (the same
// pipeline under the self-tuning spine), the backend sweep (mem vs lsm
// vs cache(256)+lsm on one workload) and the mixed read/write sweep
// (ingest-only baseline cell + concurrent scans/point-reads/index-lookups
// cell) as one JSON object with keys "Ingest", "Feed", "Pipeline",
// "Adaptive", "Backends" and "Mixed". The
// checked-in file is produced with `sibench -benchjson -backend mem`.
// Ingest and Feed run on the chosen backend; the Pipeline and Adaptive
// sweeps ALWAYS run on the lsm backend with synchronous commits —
// cross-transaction commit batching amortizes the per-commit fsync, and
// a memory backend has no fsync to amortize, so a mem-backed sweep
// would (correctly but uninformatively) show fan-in 1. The backend
// sweep likewise pins its own specs — comparing backends is its point.
func runBenchJSON(icfg bench.IngestConfig, freshDir func() string) {
	if icfg.Window == bench.AutoWindow {
		// The ledger's ingest, mixed and feed cells run the serialized
		// spine; the controller has its own cells (adaptiveSweep).
		icfg.Window = 0
	}
	ingests := ingestLaneSweep(icfg, false, freshDir)
	icfg.Lanes = 1
	// The mixed sweep runs immediately after the ingest sweep: its
	// ingest-only baseline cell is the number the mixed cell is judged
	// against, so the two must be measured under the same process state.
	mixeds := mixedSweep(icfg, 4, false, freshDir)
	feeds := feedPartSweep(icfg, false, freshDir)
	backends := backendSweep(icfg, false, freshDir)
	// The canonical pipeline configuration of the checked-in file: the
	// small-transaction workload cross-transaction batching targets.
	icfg.Backend = "lsm"
	icfg.Sync = true
	icfg.CommitEvery = 8
	icfg.Lanes = 4
	pipelines := pipelineSweep(icfg, false, freshDir)
	adaptives := adaptiveSweep(icfg, false, freshDir)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Ingest   []bench.IngestResult
		Feed     []bench.FeedResult
		Pipeline []bench.PipelineResult
		Adaptive []bench.PipelineResult
		Backends []bench.IngestResult
		Mixed    []bench.MixedResult
	}{ingests, feeds, pipelines, adaptives, backends, mixeds}); err != nil {
		fatal(err)
	}
}

var (
	figureThetas    = []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
	figureProtocols = []string{"mvcc", "s2pl", "bocc"}
)

// runFigure4 reproduces both panels: readers = 4 and readers = 24,
// theta swept 0..3, all three protocols.
func runFigure4(base bench.Config, dirFor func(string, float64) string, csv bool) {
	var all []bench.Result
	for _, readers := range []int{4, 24} {
		cfg := base
		cfg.Readers = readers
		results, err := bench.Sweep(cfg, figureProtocols, figureThetas, dirFor)
		if err != nil {
			fatal(err)
		}
		all = append(all, results...)
		if !csv {
			title := fmt.Sprintf("Figure 4: contention sweep, concurrent ad-hoc queries = %d "+
				"(tablesize=%d, ops=%d, sync=%t, backend=%s, %s/cell)",
				readers, cfg.TableSize, cfg.TxnOps, cfg.Sync, cfg.Backend, cfg.Duration)
			bench.PrintFigure(os.Stdout, title, results)
			fmt.Println()
		}
	}
	if csv {
		bench.PrintCSV(os.Stdout, all)
	}
}

// runScaling sweeps the number of concurrent writer queries at fixed
// contention to show how the group-commit pipeline scales the commit
// path: throughput should rise with writers while the commit fan-in
// (transactions per leader batch, i.e. per fsync) grows.
func runScaling(base bench.Config, dirFor func(string, float64) string, csv bool) {
	var all []bench.Result
	if !csv {
		fmt.Printf("Commit-path scaling: %s, readers=%d, theta=%.2f, sync=%t, backend=%s\n",
			base.Protocol, base.Readers, base.Theta, base.Sync, base.Backend)
		fmt.Printf("%-10s %14s %14s %12s %12s\n", "writers", "writer-tps", "total-tps", "fan-in", "abort-rate")
	}
	for _, writers := range []int{1, 2, 4, 8, 16} {
		cfg := base
		cfg.Writers = writers
		cfg.Dir = dirFor("scaling", float64(writers))
		res, err := bench.Run(cfg)
		if err != nil {
			fatal(err)
		}
		all = append(all, res)
		if !csv {
			fmt.Printf("%-10d %14.1f %14.1f %12.2f %11.1f%%\n",
				writers, res.WriterTps, res.TotalTps, res.CommitFanIn(), res.AbortRate()*100)
		}
	}
	if csv {
		bench.PrintCSV(os.Stdout, all)
	}
}

// runClaim reproduces one of the Section 5 prose claims.
func runClaim(name string, base bench.Config, dirFor func(string, float64) string) {
	switch name {
	case "c1":
		// BOCC ~5% faster than MVCC at low contention, many readers.
		fmt.Println("Claim C1: BOCC slightly ahead of MVCC at low contention with many ad-hoc queries")
		cfg := base
		cfg.Readers = 24
		cfg.Theta = 0
		for _, proto := range []string{"mvcc", "bocc"} {
			cfg.Protocol = proto
			cfg.Dir = dirFor(proto, 0)
			res, err := bench.Run(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-5s %10.1f Ktps\n", proto, res.TotalTps/1000)
		}
	case "c2":
		// Readers dominate total throughput under synchronous writes.
		fmt.Println("Claim C2: with synchronous persistence, readers contribute almost all throughput")
		for _, readers := range []int{4, 24} {
			cfg := base
			cfg.Protocol = "mvcc"
			cfg.Readers = readers
			cfg.Dir = dirFor("mvcc", float64(readers))
			res, err := bench.Run(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  readers=%-3d reader-tps=%10.1f writer-tps=%8.1f reader-share=%5.1f%%\n",
				readers, res.ReaderTps, res.WriterTps, 100*res.ReaderTps/res.TotalTps)
		}
	case "c3":
		// ACID maintained under extreme parallelism and contention.
		fmt.Println("Claim C3: no isolation/consistency violations at theta=2.9 with 24 readers")
		for _, proto := range figureProtocols {
			cfg := base
			cfg.Protocol = proto
			cfg.Readers = 24
			cfg.Theta = 2.9
			cfg.CheckConsistency = true
			cfg.Dir = dirFor(proto, 2.9)
			res, err := bench.Run(cfg)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-5s committed-reads=%-9d violations=%d\n", proto, res.ReaderCommits, res.Violations)
		}
	default:
		fatal(fmt.Errorf("unknown claim %q (want c1, c2 or c3)", name))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sibench:", err)
	os.Exit(1)
}
