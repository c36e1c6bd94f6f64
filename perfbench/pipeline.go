package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sistream/internal/kv"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// pipeline_lsm: the product's write path end to end. A saturating source
// commits every 8 tuples through the self-tuning spine onto the LSM store
// (every commit batch appended to its WAL, without fsync); a 2-partition
// change feed fused into 2 downstream lanes folds each change and counts
// it. The store starts as a copy of one that holds every key once, so
// set-up includes recovering it, as a restarted pipeline would.
const (
	pipeElements = 400_000
	pipeTxnSize  = 8
	pipeKeys     = 100_000
	pipeLanes    = 2
	// pipeSampleEvery: every n-th transaction is traced for stages and
	// spans.
	pipeSampleEvery = 16
)

type pipeline struct {
	in       *streamInput
	dir      string
	pristine string // the preloaded store every set-up starts from
	runs     int
}

// newPipeline generates the input and preloads a store with every key
// once, through the protocol, flushed and closed.
func newPipeline(seed int64, dir string) (*pipeline, error) {
	w := &pipeline{
		in:       pipelineInput(seed, pipeElements, pipeTxnSize, pipeKeys),
		dir:      dir,
		pristine: filepath.Join(dir, "pristine"),
	}
	opened, err := kv.Open("lsm:"+w.pristine, kv.OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer opened.Close()
	ctx := txn.NewContext()
	tbl, err := ctx.CreateTable("ingest", opened, txn.TableOptions{})
	if err != nil {
		return nil, err
	}
	if _, err := ctx.CreateGroup("ingest", tbl); err != nil {
		return nil, err
	}
	p := txn.NewSI(ctx)
	ops := make([]txn.WriteOp, pipeKeys)
	for i, k := range keyStrings(pipeKeys, 8) {
		ops[i] = txn.WriteOp{Key: k, Value: w.in.tuples[i%len(w.in.tuples)].Value}
	}
	tx, err := p.Begin()
	if err != nil {
		return nil, err
	}
	if _, err := p.WriteBatch(tx, tbl, ops); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := p.Commit(tx); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := lsmLayer(opened).Flush(); err != nil {
		return nil, fmt.Errorf("preload flush: %w", err)
	}
	return w, nil
}

// copyStore copies the pristine store into a new run directory.
func (w *pipeline) copyStore() (string, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("run-%d", w.runs))
	w.runs++
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(w.pristine)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(w.pristine, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// pipelineRig is one set-up of the workload: the store, the table, and
// both topologies, wired to the timestamps the run records.
type pipelineRig struct {
	dir      string
	opened   *kv.OpenedStore
	tbl      *txn.Table
	group    *txn.Group
	tun      *stream.AutoTuner
	stats    *stream.ToTableStats
	top      *stream.Topology
	down     *stream.Topology
	stopFeed func()
	setup    time.Duration

	// Written by the source and the sink goroutines and read once both
	// topologies have finished. Timestamps are ns since the base time
	// build was given.
	genNs, sinkNs []int64
	firstEmit     int64
	downElems     int64
	downCommits   int
}

// build sets the workload up over a copy of the pristine store in dir:
// open the store, create the table (recovering its rows), build both
// topologies. tr, when set, wraps the store and the protocol.
func build(dir string, in *streamInput, base time.Time, tr *tracer) (*pipelineRig, error) {
	txns := in.txns()
	r := &pipelineRig{dir: dir, genNs: make([]int64, txns), sinkNs: make([]int64, txns)}
	opened, err := kv.Open("lsm:"+r.dir, kv.OpenOptions{})
	if err != nil {
		return nil, err
	}
	r.opened = opened
	var store kv.Store = opened
	if tr != nil {
		store = &tracedStore{Store: opened, tr: tr}
	}
	ctx := txn.NewContext()
	if r.tbl, err = ctx.CreateTable("ingest", store, txn.TableOptions{}); err != nil {
		r.close()
		return nil, err
	}
	if r.group, err = ctx.CreateGroup("ingest", r.tbl); err != nil {
		r.close()
		return nil, err
	}
	var p txn.Protocol = txn.NewSI(ctx)
	if tr != nil {
		p = newTracedProtocol(p, tr)
	}

	// Downstream: feed partitions wired into lanes, a per-lane fold, and
	// a counting sink behind the merge barrier. The sink is one
	// goroutine; it stamps each COMMIT as it arrives.
	r.down = stream.New("down")
	region, stopFeed := stream.FromTablePartitioned(r.down, r.tbl, pipeLanes, nil)
	r.stopFeed = stopFeed
	region = region.Reparallelize("repart", pipeLanes, nil).Apply(func(_ int, s *stream.Stream) *stream.Stream {
		return s.Map("fold", func(t stream.Tuple) stream.Tuple {
			var acc uint64
			for _, b := range t.Value {
				acc = acc*31 + uint64(b)
			}
			t.Num = float64(acc % 1024)
			return t
		})
	})
	region.Merge("downmerge").Sink("count", func(e stream.Element) {
		switch e.Kind {
		case stream.KindData:
			r.downElems++
		case stream.KindCommit:
			if r.downCommits < txns {
				r.sinkNs[r.downCommits] = int64(time.Since(base))
			}
			r.downCommits++
		}
	})

	// Ingest: the source stamps the last tuple of every transaction just
	// before emitting it.
	r.top = stream.New("ingest")
	src := r.top.Source("gen", func(emit func(stream.Element)) error {
		r.firstEmit = int64(time.Since(base))
		for i, t := range in.tuples {
			if i%in.txnSize == in.txnSize-1 {
				r.genNs[i/in.txnSize] = int64(time.Since(base))
			}
			emit(stream.DataElement(t))
		}
		return nil
	})
	r.tun = stream.NewAutoTuner(stream.AutoTune{})
	ingest := src.Punctuate(in.txnSize).TransactionsTuned(p, r.tun).Parallelize(pipeLanes, nil)
	r.stats = ingest.ToTable(p, r.tbl)
	ingest.MergeTuned("merge", r.tun).Discard()
	r.setup = time.Since(base)
	return r, nil
}

// run drives the input through both topologies until the feed has
// delivered the last commit downstream.
func (r *pipelineRig) run() error {
	r.down.Start()
	err := r.top.Run()
	r.stopFeed()
	if derr := r.down.Wait(); err == nil {
		err = derr
	}
	return err
}

func (r *pipelineRig) close() {
	_ = r.opened.Close() // the store is discarded with its directory
	_ = os.RemoveAll(r.dir)
}

// probe sets the workload up once more and tears it down without input.
func (w *pipeline) probe() (time.Duration, error) {
	dir, err := w.copyStore()
	if err != nil {
		return 0, err
	}
	r, err := build(dir, &streamInput{txnSize: pipeTxnSize}, time.Now(), nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	return r.setup, r.run()
}

func (w *pipeline) trial(traced bool) (*trialOut, error) {
	in := w.in
	txns := in.txns()
	dir, err := w.copyStore()
	if err != nil {
		return nil, err
	}
	heap := startHeapSampler(5 * time.Millisecond)
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base, txns, pipeSampleEvery)
	}
	r, err := build(dir, in, base, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()

	db := lsmLayer(r.opened)
	lsmBefore := db.Stats()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	runStart := time.Now()
	runErr := r.run()
	runS := time.Since(runStart).Seconds()
	cpuS := cpuSeconds() - cpu0
	rt := rt0.to(readRuntime())
	heapMB, heapPeakMB := heap.finish()
	runtime.KeepAlive(r) // the heap figure counts the rig's state
	if runErr != nil {
		return nil, runErr
	}

	out := &trialOut{setupS: r.setup.Seconds(), attempted: int64(txns)}
	committed := r.stats.Commits.Load()
	out.failed = int64(txns) - committed
	var wantElems int64
	for _, n := range in.distinct {
		wantElems += int64(n)
	}
	out.check(committed == int64(txns), "pipeline_lsm: ingest commits %d, want %d (elements/8)", committed, txns)
	out.check(r.downCommits == txns, "pipeline_lsm: downstream commits %d, want %d", r.downCommits, txns)
	out.check(r.downElems == wantElems, "pipeline_lsm: delivered elements %d, want %d (distinct keys per txn)", r.downElems, wantElems)
	out.check(r.stats.Aborts.Load() == 0, "pipeline_lsm: %d aborts", r.stats.Aborts.Load())
	if len(out.problems) > 0 {
		return out, nil
	}

	lat := make([]float64, txns)
	for k := range lat {
		lat[k] = float64(r.sinkNs[k]-r.genNs[k]) / 1e6
	}
	out.elems, out.txns = float64(r.downElems), float64(committed)
	out.elapsedS = float64(r.sinkNs[txns-1]-r.firstEmit) / 1e9
	out.cpuS, out.heapMB, out.heapPeakMB, out.commitMS = cpuS, heapMB, heapPeakMB, lat
	out.named = map[string]float64{
		"delivered_elems_per_s": out.elems / out.elapsedS,
		"e2e_latency_p50_ms":    median(append([]float64(nil), lat...)),
	}
	out.samples = map[string][]float64{"e2e_latency": lat}

	if traced {
		m := map[string]float64{}
		tr.callMetrics(m, float64(in.userBytes))
		groupMetrics(m, r.group)
		tableMetrics(m, r.tbl)
		tunerMetrics(m, r.tun)
		m["stream.run_s"] = runS
		m["stream.totable.commits"] = float64(committed)
		runtimeMetrics(m, rt, out.elems)
		if err := lsmMetrics(m, lsmBefore, db.Stats(), r.opened, r.dir); err != nil {
			return nil, err
		}
		st := tr.stages(r.genNs, r.sinkNs, true)
		out.stages = &st
		out.layer = m
		out.tracer = tr
	}
	return out, nil
}
