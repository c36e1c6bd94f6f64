package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"sistream/internal/kv"
	"sistream/internal/lsm"
	"sistream/internal/stream"
	"sistream/internal/txn"
)

// perLayer are the metrics of the traced run, in BENCHMARK.json order.
// A workload that bypasses a layer reports 0 for it.
var perLayer = []metricDef{
	{"kv.apply.calls", "count"},
	{"kv.apply.sync_calls", "count"},
	{"kv.apply.p50_us", "us"},
	{"kv.apply.p99_us", "us"},
	{"kv.apply.busy_s", "s"},
	{"kv.apply.ops_per_call", "ops"},
	{"kv.apply.bytes_per_user_byte", "ratio"},
	{"kv.get.calls", "count"},
	{"kv.scan.busy_s", "s"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.space_amp", "ratio"},
	{"txn.begin.calls", "count"},
	{"txn.write.calls", "count"},
	{"txn.write.p50_us", "us"},
	{"txn.write.busy_s", "s"},
	{"txn.commit.calls", "count"},
	{"txn.commit.txns_per_call", "txn"},
	{"txn.commit.p50_us", "us"},
	{"txn.commit.p99_us", "us"},
	{"txn.commit.busy_s", "s"},
	{"txn.read.calls", "count"},
	{"txn.read.p50_us", "us"},
	{"txn.read.p99_us", "us"},
	{"txn.aborts", "count"},
	{"txn.group.fan_in", "txn"},
	{"txn.group.sync_p50_us", "us"},
	{"txn.group.sync_p99_us", "us"},
	{"txn.group.install_p50_us", "us"},
	{"txn.group.install_p99_us", "us"},
	{"txn.snapshot.open_p50_us", "us"},
	{"txn.snapshot.get_p50_us", "us"},
	{"txn.snapshot.lookup_rows_per_s", "rows/s"},
	{"txn.snapshot.scan_rows_per_s", "rows/s"},
	{"txn.index.puts", "count"},
	{"txn.index.deletes", "count"},
	{"txn.index.resident_postings", "count"},
	{"txn.table.resident_versions", "count"},
	{"txn.gc.runs", "count"},
	{"txn.gc.reclaimed_slots", "count"},
	{"stream.run_s", "s"},
	{"stream.tuner.window", "txn"},
	{"stream.tuner.grows", "count"},
	{"stream.tuner.shrinks", "count"},
	{"stream.totable.commits", "count"},
	{"stage.samples", "count"},
	{"stage.e2e_ms", "ms"},
	{"stage.route_ms", "ms"},
	{"stage.route_p50_ms", "ms"},
	{"stage.barrier_ms", "ms"},
	{"stage.barrier_p50_ms", "ms"},
	{"stage.commit_ms", "ms"},
	{"stage.commit_p50_ms", "ms"},
	{"stage.feed_ms", "ms"},
	{"stage.feed_p50_ms", "ms"},
	{"stage.unaccounted_ms", "ms"},
	{"stage.unaccounted_p50_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"reader.late_max_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"e2e_latency_p99_ms", "ms"},
	{"e2e_latency_p99_ms.samples", "count"},
	{"commit_latency_p99_ms", "ms"},
	{"commit_latency_p99_ms.samples", "count"},
	{"point_read_p50_us", "us"},
	{"point_read_p99_us", "us"},
	{"point_read_p99_us.samples", "count"},
	{"index_lookup_p50_ms", "ms"},
	{"scan_p50_ms", "ms"},
	{"read_txn_p50_us", "us"},
	{"read_txn_p99_us", "us"},
	{"read_txn_p99_us.samples", "count"},
	{"commit_p99_us", "us"},
	{"commit_p99_us.samples", "count"},
}

// callMetrics fills the figures the tracer measured around the kv and
// txn calls. userBytes is the key+value volume the workload committed.
func (tr *tracer) callMetrics(m map[string]float64, userBytes float64) {
	m["kv.apply.calls"] = tr.kvApply.calls()
	m["kv.apply.sync_calls"] = float64(tr.kvApplySync.Load())
	m["kv.apply.p50_us"] = tr.kvApply.quantileUS(0.50)
	m["kv.apply.p99_us"] = tr.kvApply.quantileUS(0.99)
	m["kv.apply.busy_s"] = tr.kvApply.busySeconds()
	if n := tr.kvApply.calls(); n > 0 {
		m["kv.apply.ops_per_call"] = float64(tr.kvApplyOps.Load()) / n
	}
	if userBytes > 0 {
		m["kv.apply.bytes_per_user_byte"] = float64(tr.kvApplyBytes.Load()) / userBytes
	}
	m["kv.get.calls"] = tr.kvGet.calls()
	m["kv.scan.busy_s"] = tr.kvScan.busySeconds()

	m["txn.begin.calls"] = tr.txnBegin.calls()
	m["txn.write.calls"] = tr.txnWrite.calls()
	m["txn.write.p50_us"] = tr.txnWrite.quantileUS(0.50)
	m["txn.write.busy_s"] = tr.txnWrite.busySeconds()
	m["txn.commit.calls"] = tr.txnCommit.calls()
	if n := tr.txnCommit.calls(); n > 0 {
		m["txn.commit.txns_per_call"] = float64(tr.txnCommitted.Load()) / n
	}
	m["txn.commit.p50_us"] = tr.txnCommit.quantileUS(0.50)
	m["txn.commit.p99_us"] = tr.txnCommit.quantileUS(0.99)
	m["txn.commit.busy_s"] = tr.txnCommit.busySeconds()
	m["txn.read.calls"] = tr.txnRead.calls()
	m["txn.read.p50_us"] = tr.txnRead.quantileUS(0.50)
	m["txn.read.p99_us"] = tr.txnRead.quantileUS(0.99)
	m["txn.aborts"] = float64(tr.txnAborts.Load())

	m["txn.snapshot.open_p50_us"] = tr.snapOpen.quantileUS(0.50)
	m["txn.snapshot.get_p50_us"] = tr.snapGet.quantileUS(0.50)
	if b := tr.snapLookup.busySeconds(); b > 0 {
		m["txn.snapshot.lookup_rows_per_s"] = float64(tr.lookupRows.Load()) / b
	}
	if b := tr.snapScan.busySeconds(); b > 0 {
		m["txn.snapshot.scan_rows_per_s"] = float64(tr.scanRows.Load()) / b
	}
}

// groupMetrics reads the group-commit pipeline's own profile.
func groupMetrics(m map[string]float64, g *txn.Group) {
	prof := g.CommitProfile()
	if prof.Batches > 0 {
		m["txn.group.fan_in"] = float64(prof.Txns) / float64(prof.Batches)
	}
	m["txn.group.sync_p50_us"] = float64(prof.Sync.P50) / 1e3
	m["txn.group.sync_p99_us"] = float64(prof.Sync.P99) / 1e3
	m["txn.group.install_p50_us"] = float64(prof.Install.P50) / 1e3
	m["txn.group.install_p99_us"] = float64(prof.Install.P99) / 1e3
}

// tableMetrics reads version residency and sweeper activity of tables.
func tableMetrics(m map[string]float64, tbls ...*txn.Table) {
	for _, t := range tbls {
		m["txn.table.resident_versions"] += float64(t.ResidentVersions())
		gc := t.GCStats()
		m["txn.gc.runs"] += float64(gc.Runs)
		m["txn.gc.reclaimed_slots"] += float64(gc.ReclaimedSlots)
	}
}

func indexMetrics(m map[string]float64, ix *txn.Index) {
	st := ix.Stats()
	m["txn.index.puts"] = float64(st.Puts)
	m["txn.index.deletes"] = float64(st.Deletes)
	m["txn.index.resident_postings"] = float64(ix.ResidentPostings())
}

func tunerMetrics(m map[string]float64, tun *stream.AutoTuner) {
	st := tun.Stats()
	m["stream.tuner.window"] = float64(st.Window)
	m["stream.tuner.grows"] = float64(st.Grows)
	m["stream.tuner.shrinks"] = float64(st.Shrinks)
}

// runtimeMetrics reports what the Go runtime did during the measured
// run; ops is the count behind the workload's elems_per_s.
func runtimeMetrics(m map[string]float64, d runtimeDelta, ops float64) {
	m["runtime.gc_cycles"] = d.gcCycles
	m["runtime.gc_pause_total_ms"] = d.gcPauseMS
	m["runtime.sched_latency_p99_us"] = d.schedP99US
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = d.allocBytes / ops
	}
}

// lsmLayer returns the LSM layer of an opened store chain, or nil.
func lsmLayer(st *kv.OpenedStore) *lsm.DB {
	db, _ := st.FindLayer(func(s kv.Store) bool { _, ok := s.(*lsm.DB); return ok }).(*lsm.DB)
	return db
}

// lsmMetrics reports flushes and compactions between two DB.Stats reads
// and the space amplification of the store directory: bytes on disk over
// the key and value bytes of the live rows (read by a full scan).
func lsmMetrics(m map[string]float64, before, after lsm.Stats, st kv.Store, dir string) error {
	m["lsm.flushes"] = float64(after.Flushes - before.Flushes)
	m["lsm.compactions"] = float64(after.Compactions - before.Compactions)
	var live int64
	if err := st.Scan(nil, nil, func(k, v []byte) bool {
		live += int64(len(k) + len(v))
		return true
	}); err != nil {
		return fmt.Errorf("scan for space amplification: %w", err)
	}
	var disk int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		disk += info.Size()
		return nil
	})
	if err != nil {
		return fmt.Errorf("size store directory: %w", err)
	}
	if live > 0 {
		m["lsm.space_amp"] = float64(disk) / float64(live)
	}
	return nil
}

// layerReport turns the trials of a traced run into the per-layer
// metrics: medians over traced trials for layer figures, pooled sampled
// transactions for the stage split, and pooled untraced samples for the
// tails (whose sample counts are reported beside them).
func layerReport(res *result, plain, traced []*trialOut) {
	for _, d := range perLayer {
		v := 0.0 // a layer the workload bypasses
		if _, ok := traced[0].layer[d.name]; ok {
			v = median(collect(traced, func(o *trialOut) float64 { return o.layer[d.name] }))
		}
		res.put(d.name, d.unit, v)
	}

	var st stageReport
	for _, o := range traced {
		if o.stages == nil {
			continue
		}
		st.route = append(st.route, o.stages.route...)
		st.barrier = append(st.barrier, o.stages.barrier...)
		st.commit = append(st.commit, o.stages.commit...)
		st.feed = append(st.feed, o.stages.feed...)
		st.unaccounted = append(st.unaccounted, o.stages.unaccounted...)
		st.e2e = append(st.e2e, o.stages.e2e...)
	}
	if len(st.e2e) > 0 {
		res.put("stage.samples", "count", float64(len(st.e2e)))
		res.put("stage.e2e_ms", "ms", mean(st.e2e))
		for _, s := range []struct {
			name string
			xs   []float64
		}{{"route", st.route}, {"barrier", st.barrier}, {"commit", st.commit}, {"feed", st.feed}, {"unaccounted", st.unaccounted}} {
			res.put("stage."+s.name+"_ms", "ms", mean(s.xs))
			res.put("stage."+s.name+"_p50_ms", "ms", median(s.xs))
		}
	}

	pool := func(name string) []float64 {
		var xs []float64
		for _, o := range plain {
			xs = append(xs, o.samples[name]...)
		}
		return xs
	}
	for _, name := range []string{"e2e_latency_p99_ms", "commit_latency_p99_ms", "point_read_p99_us", "read_txn_p99_us", "commit_p99_us"} {
		xs := pool(strings.TrimSuffix(strings.TrimSuffix(name, "_p99_ms"), "_p99_us"))
		if len(xs) == 0 {
			continue
		}
		res.put(name, res.Metrics[name].Unit, quantile(xs, 0.99))
		res.put(name+".samples", "count", float64(len(xs)))
	}
	for _, name := range []string{"point_read_p50_us", "index_lookup_p50_ms", "scan_p50_ms", "read_txn_p50_us"} {
		xs := pool(strings.TrimSuffix(strings.TrimSuffix(name, "_p50_ms"), "_p50_us"))
		if len(xs) > 0 {
			res.put(name, res.Metrics[name].Unit, quantile(xs, 0.5))
		}
	}

	// Tracing overhead: how much slower the traced trials ran than the
	// untraced ones interleaved with them, on the workload's throughput.
	up, tp := pooled(plain)["elems_per_s"], pooled(traced)["elems_per_s"]
	if tp > 0 {
		res.put("trace.overhead_pct", "%", (up/tp-1)*100)
	}
}
