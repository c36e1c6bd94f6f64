// Command perfbench is the repository's benchmark: it runs one workload
// against the engine's packages for a fixed time, checks the workload's
// output, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run alternates untraced and traced trials and reports the per-layer
// metrics instead. See README.md for the workloads and every metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload pipeline_lsm --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// trialOut is the outcome of one trial: one replay of the workload's
// inputs from a fresh set-up.
type trialOut struct {
	setupS float64
	// elems and txns are the counts behind elems_per_s and txn_per_s,
	// measured over elapsedS seconds; commitMS are the latency samples
	// behind commit_p50_ms; heapMB is the live heap the trial's state
	// holds at its end and heapPeakMB the trial's live-heap peak.
	elems, txns, elapsedS float64
	commitMS              []float64
	heapMB, heapPeakMB    float64
	// cpuS is the process CPU time the measured run used.
	cpuS float64
	// named holds the workload's own figures for the report
	// (delivered_elems_per_s, scan_p50_ms, ...; see namedUnits).
	named map[string]float64
	// samples holds per-request latencies for the traced report's tails.
	samples map[string][]float64
	// layer holds the per-layer metrics of a traced trial.
	layer map[string]float64
	// stages holds the stage split of a traced trial's sampled txns;
	// tracer its spans.
	stages *stageReport
	tracer *tracer

	attempted, failed int64
	// problems lists every output check the trial failed.
	problems []string
}

func (o *trialOut) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload runs trials of one workload: each trial sets the workload up
// afresh and replays its inputs.
type workload interface {
	trial(traced bool) (*trialOut, error)
}

// prober is a workload whose set-up is cheap enough to repeat on its
// own: probe sets it up and tears it down without running any input.
type prober interface {
	probe() (time.Duration, error)
}

// setupProbes is how many extra set-ups a run of a prober makes, so that
// setup_s is a median over many samples.
const setupProbes = 15

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with -trace 0, in
// BENCHMARK.json order: the ones steady enough on a small shared machine
// to carry a bound. The figures of pooledMetrics are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_elem", "us/elem"},
	{"live_heap_mb", "MiB"},
}

// pooledMetrics are the wall-clock figures and the live-heap peak every
// workload prints in its table; they are not bounded (see README.md).
var pooledMetrics = []metricDef{
	{"elems_per_s", "elems/s"},
	{"txn_per_s", "txn/s"},
	{"commit_p50_ms", "ms"},
	{"live_heap_peak_mb", "MiB"},
}

// pooled pools trials into the end-to-end figures: set-up time, CPU per
// element and the live-heap figures are medians over the trials; rates
// are counts summed across trials over measured time summed across
// trials; commit_p50_ms is the median of all the trials' latency samples
// together.
func pooled(outs []*trialOut) map[string]float64 {
	var elems, txns, secs float64
	var lat []float64
	for _, o := range outs {
		elems += o.elems
		txns += o.txns
		secs += o.elapsedS
		lat = append(lat, o.commitMS...)
	}
	m := map[string]float64{
		"setup_s":           median(collect(outs, func(o *trialOut) float64 { return o.setupS })),
		"commit_p50_ms":     median(lat),
		"live_heap_mb":      median(collect(outs, func(o *trialOut) float64 { return o.heapMB })),
		"live_heap_peak_mb": median(collect(outs, func(o *trialOut) float64 { return o.heapPeakMB })),
	}
	if secs > 0 {
		m["elems_per_s"] = elems / secs
		m["txn_per_s"] = txns / secs
	}
	m["cpu_us_per_elem"] = median(collect(outs, func(o *trialOut) float64 {
		if o.elems == 0 {
			return 0
		}
		return o.cpuS / o.elems * 1e6
	}))
	return m
}

// minTrials is the fewest counted trials a run makes, however long
// they take.
const minTrials = 3

func main() {
	var (
		name    = flag.String("workload", "", "pipeline_lsm | mixed_indexed | fig4_contended")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured time; trials repeat until it has passed")
		trace   = flag.Int("trace", 0, "1 = alternate untraced and traced trials and report per-layer metrics")
		work    = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
		spans   = flag.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	flag.Parse()
	correct, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *work, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run runs the workload and prints its report; it returns whether every
// output check passed.
func run(name string, seed int64, seconds time.Duration, traced bool, workRoot, spanDir string) (bool, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(workRoot, name+"-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	prepStart := time.Now()
	var w workload
	switch name {
	case "pipeline_lsm":
		w, err = newPipeline(seed, dir)
	case "mixed_indexed":
		w = newMixed(seed)
	case "fig4_contended":
		w, err = newFig4(seed, dir)
	default:
		return false, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return false, err
	}
	prepared := time.Since(prepStart)

	var setups []float64
	if p, ok := w.(prober); ok && !traced {
		for i := 0; i < setupProbes; i++ {
			d, err := p.probe()
			if err != nil {
				return false, fmt.Errorf("set-up probe: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
	}

	// A warm-up trial first: its output is checked like every other, but
	// its figures carry the process's cold start (heap growth, page
	// faults, first-use initialisation) and are left out.
	var plain, tracedOuts, all []*trialOut
	runtime.GC()
	warm, err := w.trial(false)
	if err != nil {
		return false, fmt.Errorf("warm-up trial: %w", err)
	}
	all = append(all, warm)
	start := time.Now()
	for i := 0; ; i++ {
		t := traced && i%2 == 1
		runtime.GC() // every trial starts from the same heap
		out, err := w.trial(t)
		if err != nil {
			return false, fmt.Errorf("trial %d: %w", i, err)
		}
		all = append(all, out)
		fmt.Fprintf(os.Stderr, "trial %d traced=%t", i, t)
		one := pooled([]*trialOut{out})
		for _, d := range append(endToEnd, pooledMetrics...) {
			fmt.Fprintf(os.Stderr, " %s=%.6g", d.name, one[d.name])
		}
		fmt.Fprintln(os.Stderr)
		if t {
			tracedOuts = append(tracedOuts, out)
		} else {
			plain = append(plain, out)
		}
		// Stop once the trials made are enough and the next one would
		// end after the measured time.
		enough := len(plain) >= minTrials && (!traced || len(tracedOuts) >= minTrials)
		perTrial := time.Since(start) / time.Duration(i+1)
		if enough && time.Since(start)+perTrial > seconds {
			break
		}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, out := range all {
		res.Attempted += out.attempted
		res.Failed += out.failed
		for _, p := range out.problems {
			res.Correct = false
			fmt.Printf("CHECK FAILED: %s\n", p)
		}
	}

	m := stampMachine()
	stamp, _ := json.Marshal(m)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t trials=%d+%d traced, inputs prepared in %.1fs\n",
		name, seed, int(seconds.Seconds()), traced, len(plain), len(tracedOuts), prepared.Seconds())
	fmt.Printf("machine %s\n", stamp)

	if !traced {
		e2e := pooled(plain)
		for _, o := range plain {
			setups = append(setups, o.setupS)
		}
		e2e["setup_s"] = median(setups)
		for _, d := range endToEnd {
			res.put(d.name, d.unit, e2e[d.name])
		}
		printMetrics("end-to-end", res.Metrics)
		named := map[string]metricValue{}
		for _, d := range pooledMetrics {
			named[d.name] = metricValue{Value: e2e[d.name], Unit: d.unit}
		}
		for _, k := range keys(plain[0].named) {
			v := median(collect(plain, func(o *trialOut) float64 { return o.named[k] }))
			named[k] = metricValue{Value: v, Unit: namedUnits[k]}
		}
		abortRate := 0.0
		if res.Attempted > 0 {
			abortRate = float64(res.Failed) / float64(res.Attempted)
		}
		named["abort_rate"] = metricValue{Value: abortRate, Unit: "ratio"}
		printMetrics("wall-clock and workload figures (not bounded)", named)
	} else {
		layerReport(&res, plain, tracedOuts)
		printMetrics("per-layer (traced trials; see README.md)", res.Metrics)
		for i, out := range tracedOuts {
			if out.tracer == nil {
				continue
			}
			path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-trial%d.json", name, seed, i))
			if err := out.tracer.writeSpans(path); err != nil {
				return false, err
			}
			fmt.Printf("spans %s\n", path)
		}
	}

	b, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(b))
	return res.Correct, nil
}

// namedUnits are the units of the workload figures of the report.
var namedUnits = map[string]string{
	"delivered_elems_per_s": "elems/s",
	"e2e_latency_p50_ms":    "ms",
	"ingest_elems_per_s":    "elems/s",
	"commit_latency_p50_ms": "ms",
	"point_read_p50_us":     "us",
	"index_lookup_p50_ms":   "ms",
	"scan_p50_ms":           "ms",
	"total_tps":             "txn/s",
	"writer_tps":            "txn/s",
	"read_txn_p50_us":       "us",
	"commit_p50_us":         "us",
	"reader_late_max_ms":    "ms",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) put(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func collect(outs []*trialOut, f func(*trialOut) float64) []float64 {
	xs := make([]float64, 0, len(outs))
	for _, o := range outs {
		xs = append(xs, f(o))
	}
	return xs
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func printMetrics(title string, ms map[string]metricValue) {
	fmt.Println(title)
	for _, k := range keys(ms) {
		fmt.Printf("  %-36s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}
