package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sistream/internal/kv"
	"sistream/internal/metrics"
	"sistream/internal/txn"
)

// The traced run times every call the engine makes into the layers below
// the benchmark: the kv.Store the tables persist through (tracedStore)
// and the txn.Protocol the writer, the lanes and the commit spine drive
// (newTracedProtocol). Both wrappers are path-preserving: they expose
// exactly the optional interfaces of the object they wrap, so the engine
// picks the same fast paths with and without tracing.

// callStat is one call site: a latency histogram (nanoseconds; its
// count is the call count) and the summed time spent inside the call.
type callStat struct {
	hist metrics.Histogram
	busy atomic.Int64
}

func (c *callStat) since(start time.Time) time.Time {
	end := time.Now()
	d := int64(end.Sub(start))
	c.hist.Record(d)
	c.busy.Add(d)
	return end
}

func (c *callStat) calls() float64       { return float64(c.hist.Count()) }
func (c *callStat) busySeconds() float64 { return float64(c.busy.Load()) / 1e9 }
func (c *callStat) quantileUS(q float64) float64 {
	if c.hist.Count() == 0 {
		return 0
	}
	return float64(c.hist.Quantile(q)) / 1e3
}

// span is one timed call of a sampled transaction, in nanoseconds since
// the trial's start. Parent is 0 for a transaction's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Txn    int    `json:"txn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects one traced trial: per-layer call statistics, the stage
// timestamps of sampled transactions, and their spans.
type tracer struct {
	t0          time.Time
	sampleEvery int

	kvApply, kvGet, kvScan callStat
	kvApplySync            atomic.Int64
	kvApplyOps             atomic.Int64
	kvApplyBytes           atomic.Int64

	txnBegin, txnRead, txnWrite, txnCommit callStat
	txnCommitted                           atomic.Int64
	txnAborts                              atomic.Int64

	snapOpen, snapGet, snapLookup, snapScan callStat
	lookupRows, scanRows                    atomic.Int64

	// Writer transactions are numbered in Begin order (their seq);
	// sampled maps the sampled ones' txn.ID to their seq.
	begun   atomic.Int64
	sampled sync.Map

	// Stage timestamps of sampled transactions, indexed by seq (ns since
	// t0, 0 = not seen).
	lastWrite, commitStart, commitEnd []atomic.Int64
	// roots holds the root span id of each sampled transaction.
	roots []atomic.Int64

	// inCommit is the span of the commit call in flight for a sampled
	// transaction; kv.Apply calls made meanwhile become its children.
	inCommit atomic.Int64
	nextSpan atomic.Int64
	spanMu   sync.Mutex
	spans    []span
}

// maxSpans bounds the span log of one trial.
const maxSpans = 50_000

func newTracer(t0 time.Time, txns, sampleEvery int) *tracer {
	return &tracer{
		t0:          t0,
		sampleEvery: sampleEvery,
		lastWrite:   make([]atomic.Int64, txns),
		commitStart: make([]atomic.Int64, txns),
		commitEnd:   make([]atomic.Int64, txns),
		roots:       make([]atomic.Int64, txns),
	}
}

func (tr *tracer) ns(t time.Time) int64 { return int64(t.Sub(tr.t0)) }

func (tr *tracer) addSpan(s span) {
	tr.spanMu.Lock()
	if len(tr.spans) < maxSpans {
		tr.spans = append(tr.spans, s)
	}
	tr.spanMu.Unlock()
}

// began registers a writer transaction; every sampleEvery-th one is
// sampled for stages and spans.
func (tr *tracer) began(tx *txn.Txn) {
	seq := int(tr.begun.Add(1) - 1)
	if seq%tr.sampleEvery != 0 || seq >= len(tr.lastWrite) {
		return
	}
	tr.roots[seq].Store(tr.nextSpan.Add(1))
	tr.sampled.Store(tx.ID(), seq)
}

// seq returns the seq of tx when it is sampled.
func (tr *tracer) seq(tx *txn.Txn) (int, bool) {
	v, ok := tr.sampled.Load(tx.ID())
	if !ok {
		return 0, false
	}
	return v.(int), true
}

func maxStore(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// wrote records a write call of tx that ran from start to end.
func (tr *tracer) wrote(tx *txn.Txn, name string, start, end time.Time) {
	seq, ok := tr.seq(tx)
	if !ok {
		return
	}
	maxStore(&tr.lastWrite[seq], tr.ns(end))
	tr.addSpan(span{ID: tr.nextSpan.Add(1), Parent: tr.roots[seq].Load(), Txn: seq, Name: name, Start: tr.ns(start), End: tr.ns(end)})
}

// commitBegins opens the commit span of the sampled transactions among
// txs; it returns the span id (0 when none is sampled) and their seqs.
func (tr *tracer) commitBegins(txs []*txn.Txn, start time.Time) (int64, []int) {
	var seqs []int
	for _, tx := range txs {
		if seq, ok := tr.seq(tx); ok {
			seqs = append(seqs, seq)
			tr.commitStart[seq].Store(tr.ns(start))
		}
	}
	if seqs == nil {
		return 0, nil
	}
	id := tr.nextSpan.Add(1)
	tr.inCommit.Store(id)
	return id, seqs
}

func (tr *tracer) commitEnds(id int64, seqs []int, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	tr.inCommit.CompareAndSwap(id, 0)
	for i, seq := range seqs {
		tr.commitEnd[seq].Store(tr.ns(end))
		sid := id
		if i > 0 {
			sid = tr.nextSpan.Add(1)
		}
		tr.addSpan(span{ID: sid, Parent: tr.roots[seq].Load(), Txn: seq, Name: name, Start: tr.ns(start), End: tr.ns(end)})
	}
}

// stageReport splits the latency of each sampled transaction into the
// stages of the transaction path. gen and sink are the workload's own
// timestamps (ns since t0) of a transaction's last generated tuple and of
// its COMMIT at the measuring sink; feed selects whether the sink sits
// behind the change feed.
type stageReport struct {
	route, barrier, commit, feed, unaccounted, e2e []float64
}

func (tr *tracer) stages(gen, sink []int64, feed bool) stageReport {
	var r stageReport
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for seq := 0; seq < len(tr.lastWrite) && seq < len(gen); seq += tr.sampleEvery {
		lw, cs, ce := tr.lastWrite[seq].Load(), tr.commitStart[seq].Load(), tr.commitEnd[seq].Load()
		g, s := gen[seq], sink[seq]
		if lw == 0 || cs == 0 || ce == 0 || s == 0 {
			continue
		}
		var f int64
		if feed {
			f = s - ce
		}
		e2e := s - g
		route, barrier, commit := lw-g, cs-lw, ce-cs
		r.route = append(r.route, ms(route))
		r.barrier = append(r.barrier, ms(barrier))
		r.commit = append(r.commit, ms(commit))
		r.feed = append(r.feed, ms(f))
		r.unaccounted = append(r.unaccounted, ms(e2e-route-barrier-commit-f))
		r.e2e = append(r.e2e, ms(e2e))
		tr.addSpan(span{ID: tr.roots[seq].Load(), Txn: seq, Name: "txn", Start: g, End: s})
	}
	return r
}

// closeRoots adds the root span of every sampled transaction that has
// none yet (a workload without a sink, such as fig4_contended), spanning
// its calls.
func (tr *tracer) closeRoots() {
	have := map[int64]bool{}
	type extent struct {
		seq        int
		start, end int64
	}
	calls := map[int64]*extent{}
	for _, s := range tr.spans {
		have[s.ID] = true
		if s.Parent == 0 || s.Txn < 0 {
			continue
		}
		if e, ok := calls[s.Parent]; ok {
			e.start, e.end = min(e.start, s.Start), max(e.end, s.End)
		} else {
			calls[s.Parent] = &extent{s.Txn, s.Start, s.End}
		}
	}
	for id, e := range calls {
		if !have[id] && tr.roots[e.seq].Load() == id {
			tr.spans = append(tr.spans, span{ID: id, Txn: e.seq, Name: "txn", Start: e.start, End: e.end})
		}
	}
}

// writeSpans writes the trial's spans as one JSON document.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tr.spanMu.Lock()
	defer tr.spanMu.Unlock()
	tr.closeRoots()
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracedStore times the calls the engine makes into a kv.Store.
type tracedStore struct {
	kv.Store
	tr *tracer
}

// Capabilities reports the wrapped store's flags: without it the commit
// leader would assume a durable, sync-supporting store and start
// requesting fsyncs from the memory backend.
func (s *tracedStore) Capabilities() kv.Capabilities { return kv.CapabilitiesOf(s.Store) }

func (s *tracedStore) Apply(b *kv.Batch, sync bool) error {
	var bytes int64
	for _, op := range b.Ops() {
		bytes += int64(len(op.Key) + len(op.Value))
	}
	start := time.Now()
	err := s.Store.Apply(b, sync)
	end := s.tr.kvApply.since(start)
	s.tr.kvApplyOps.Add(int64(b.Len()))
	s.tr.kvApplyBytes.Add(bytes)
	if sync {
		s.tr.kvApplySync.Add(1)
	}
	if parent := s.tr.inCommit.Load(); parent != 0 {
		s.tr.addSpan(span{ID: s.tr.nextSpan.Add(1), Parent: parent, Txn: -1, Name: "kv.apply", Start: s.tr.ns(start), End: s.tr.ns(end)})
	}
	return err
}

func (s *tracedStore) Get(key []byte) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := s.Store.Get(key)
	s.tr.kvGet.since(start)
	return v, ok, err
}

func (s *tracedStore) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	t := time.Now()
	err := s.Store.Scan(start, end, fn)
	s.tr.kvScan.since(t)
	return err
}

// tracedProtocol times the calls into a txn.Protocol. It implements only
// the Protocol interface; newTracedProtocol adds SegmentWriter and
// ChainCommitter exactly when the wrapped protocol has them.
type tracedProtocol struct {
	txn.Protocol
	tr *tracer
}

type segmentProtocol struct {
	*tracedProtocol
	sw txn.SegmentWriter
}

type chainProtocol struct {
	*tracedProtocol
	cc txn.ChainCommitter
}

type segmentChainProtocol struct {
	*tracedProtocol
	sw txn.SegmentWriter
	cc txn.ChainCommitter
}

func newTracedProtocol(p txn.Protocol, tr *tracer) txn.Protocol {
	base := &tracedProtocol{Protocol: p, tr: tr}
	sw, isSW := p.(txn.SegmentWriter)
	cc, isCC := p.(txn.ChainCommitter)
	switch {
	case isSW && isCC:
		return &segmentChainProtocol{tracedProtocol: base, sw: sw, cc: cc}
	case isSW:
		return &segmentProtocol{tracedProtocol: base, sw: sw}
	case isCC:
		return &chainProtocol{tracedProtocol: base, cc: cc}
	}
	return base
}

func (p *tracedProtocol) Begin() (*txn.Txn, error) {
	start := time.Now()
	tx, err := p.Protocol.Begin()
	p.tr.txnBegin.since(start)
	if err == nil {
		p.tr.began(tx)
	}
	return tx, err
}

func (p *tracedProtocol) BeginReadOnly() (*txn.Txn, error) {
	start := time.Now()
	tx, err := p.Protocol.BeginReadOnly()
	p.tr.txnBegin.since(start)
	return tx, err
}

func (p *tracedProtocol) Read(tx *txn.Txn, tbl *txn.Table, key string) ([]byte, bool, error) {
	start := time.Now()
	v, ok, err := p.Protocol.Read(tx, tbl, key)
	p.tr.txnRead.since(start)
	p.aborted(err)
	return v, ok, err
}

func (p *tracedProtocol) Write(tx *txn.Txn, tbl *txn.Table, key string, value []byte) error {
	start := time.Now()
	err := p.Protocol.Write(tx, tbl, key, value)
	p.tr.wrote(tx, "txn.write", start, p.tr.txnWrite.since(start))
	p.aborted(err)
	return err
}

func (p *tracedProtocol) WriteBatch(tx *txn.Txn, tbl *txn.Table, ops []txn.WriteOp) (int, error) {
	start := time.Now()
	n, err := p.Protocol.WriteBatch(tx, tbl, ops)
	p.tr.wrote(tx, "txn.write_batch", start, p.tr.txnWrite.since(start))
	p.aborted(err)
	return n, err
}

func (p *tracedProtocol) CommitState(tx *txn.Txn, tbl *txn.Table) error {
	return p.commit([]*txn.Txn{tx}, "txn.commit_state", func() error { return p.Protocol.CommitState(tx, tbl) })
}

func (p *tracedProtocol) Commit(tx *txn.Txn) error {
	return p.commit([]*txn.Txn{tx}, "txn.commit", func() error { return p.Protocol.Commit(tx) })
}

func (p *tracedProtocol) Abort(tx *txn.Txn) error {
	p.tr.txnAborts.Add(1)
	return p.Protocol.Abort(tx)
}

// commit times one commit call covering txs.
func (p *tracedProtocol) commit(txs []*txn.Txn, name string, call func() error) error {
	start := time.Now()
	id, seqs := p.tr.commitBegins(txs, start)
	err := call()
	end := p.tr.txnCommit.since(start)
	p.tr.commitEnds(id, seqs, name, start, end)
	if err == nil {
		p.tr.txnCommitted.Add(int64(len(txs)))
	}
	p.aborted(err)
	return err
}

func (p *tracedProtocol) aborted(err error) {
	if txn.IsAbort(err) {
		p.tr.txnAborts.Add(1)
	}
}

func writeSegment(p *tracedProtocol, sw txn.SegmentWriter, tx *txn.Txn, tbl *txn.Table, seg *txn.Segment) (int, error) {
	start := time.Now()
	n, err := sw.WriteSegment(tx, tbl, seg)
	p.tr.wrote(tx, "txn.write_segment", start, p.tr.txnWrite.since(start))
	p.aborted(err)
	return n, err
}

func commitChain(p *tracedProtocol, cc txn.ChainCommitter, txs []*txn.Txn, tbls []*txn.Table) [][]error {
	start := time.Now()
	id, seqs := p.tr.commitBegins(txs, start)
	errs := cc.CommitChain(txs, tbls)
	end := p.tr.txnCommit.since(start)
	p.tr.commitEnds(id, seqs, "txn.commit_chain", start, end)
	for _, txErrs := range errs {
		failed := false
		for _, err := range txErrs {
			if err != nil {
				failed = true
				p.aborted(err)
			}
		}
		if !failed {
			p.tr.txnCommitted.Add(1)
		}
	}
	return errs
}

func (p *segmentProtocol) WriteSegment(tx *txn.Txn, tbl *txn.Table, seg *txn.Segment) (int, error) {
	return writeSegment(p.tracedProtocol, p.sw, tx, tbl, seg)
}

func (p *chainProtocol) CommitChain(txs []*txn.Txn, tbls []*txn.Table) [][]error {
	return commitChain(p.tracedProtocol, p.cc, txs, tbls)
}

func (p *segmentChainProtocol) WriteSegment(tx *txn.Txn, tbl *txn.Table, seg *txn.Segment) (int, error) {
	return writeSegment(p.tracedProtocol, p.sw, tx, tbl, seg)
}

func (p *segmentChainProtocol) CommitChain(txs []*txn.Txn, tbls []*txn.Table) [][]error {
	return commitChain(p.tracedProtocol, p.cc, txs, tbls)
}
