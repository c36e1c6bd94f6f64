package main

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// fig4_contended: the paper's Figure 4 cell as a closed loop — one
// writer and one reader calling the protocol directly on two states of
// 1M preloaded rows each, Zipf theta 2, on the LSM store with
// synchronous commits, with the claim-C3 consistency token on.
const (
	fig4States     = 2
	fig4Rows       = 1_000_000
	fig4ValueBytes = 20
	fig4TxnOps     = 10
	fig4Theta      = 2.0
	fig4WriterTxns = 12000
	fig4ReaderPool = 1 << 18
	// fig4Token is the invariant key: every writer transaction sets it to
	// the same sequence number in both states, so a reader whose
	// snapshot mixes two commits sees two different values. Its length
	// keeps it apart from the 4-byte row keys.
	fig4Token       = "chk"
	fig4SampleEvery = 8
	// fig4ReadSampleEvery: the reader keeps the latency of every n-th
	// transaction; it commits millions per trial.
	fig4ReadSampleEvery = 16
)

type fig4 struct {
	in    *fig4Input
	dir   string
	value []byte
}

var fig4Tables = func() []txn.StateID {
	ids := make([]txn.StateID, fig4States)
	for i := range ids {
		ids[i] = txn.StateID(fmt.Sprintf("state%d", i))
	}
	return ids
}()

func encodeSeq(seq uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, seq)
	return b
}

// newFig4 generates the inputs and preloads the store: fig4Rows distinct
// rows per state, written through the protocol in large transactions
// and flushed, then closed so that each trial's set-up is a restart.
func newFig4(seed int64, dir string) (*fig4, error) {
	w := &fig4{
		in:    makeFig4Input(seed, fig4Rows, fig4WriterTxns, fig4TxnOps, fig4ReaderPool, fig4Theta),
		dir:   filepath.Join(dir, "store"),
		value: make([]byte, fig4ValueBytes),
	}
	for i := range w.value {
		w.value[i] = byte('a' + (int(seed)+i)%26)
	}
	opened, err := kv.Open("lsm:"+w.dir, kv.OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer opened.Close()
	ctx, tbls, _, err := openTables(opened)
	if err != nil {
		return nil, err
	}
	p := txn.NewSI(ctx)
	const perTxn = 20_000
	ops := make([]txn.WriteOp, 0, perTxn)
	for _, tbl := range tbls {
		for lo := 0; lo < fig4Rows; lo += perTxn {
			ops = ops[:0]
			for k := lo; k < min(lo+perTxn, fig4Rows); k++ {
				ops = append(ops, txn.WriteOp{Key: fig4Key(uint64(k)), Value: w.value})
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
		}
	}
	tx, err := p.Begin()
	if err != nil {
		return nil, err
	}
	for _, tbl := range tbls {
		if err := p.Write(tx, tbl, fig4Token, encodeSeq(0)); err != nil {
			return nil, err
		}
	}
	if err := p.Commit(tx); err != nil {
		return nil, err
	}
	if err := lsmLayer(opened).Flush(); err != nil {
		return nil, fmt.Errorf("preload flush: %w", err)
	}
	return w, nil
}

// openTables creates the two states over store and recovers them.
func openTables(store kv.Store) (*txn.Context, []*txn.Table, *txn.Group, error) {
	ctx := txn.NewContext()
	tbls := make([]*txn.Table, fig4States)
	for i, id := range fig4Tables {
		t, err := ctx.CreateTable(id, store, txn.TableOptions{SyncCommits: true})
		if err != nil {
			return nil, nil, nil, err
		}
		tbls[i] = t
	}
	g, err := ctx.CreateGroup("fig4", tbls...)
	if err != nil {
		return nil, nil, nil, err
	}
	return ctx, tbls, g, nil
}

// loopStats is what one closed-loop client measured.
type loopStats struct {
	commits, aborts, violations int64
	lat                         []float64 // µs
	err                         error
}

func (w *fig4) trial(traced bool) (*trialOut, error) {
	heap := startHeapSampler(5 * time.Millisecond)
	base := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer(base, fig4WriterTxns, fig4SampleEvery)
	}

	// --- set-up: a restart — open the store and recover 2M rows.
	opened, err := kv.Open("lsm:"+w.dir, kv.OpenOptions{})
	if err != nil {
		return nil, err
	}
	defer opened.Close()
	var store kv.Store = opened
	if traced {
		store = &tracedStore{Store: opened, tr: tr}
	}
	ctx, tbls, group, err := openTables(store)
	if err != nil {
		return nil, err
	}
	var p txn.Protocol = txn.NewSI(ctx)
	if traced {
		p = newTracedProtocol(p, tr)
	}
	setup := time.Since(base)
	// Collect the garbage recovery left behind before the clock starts,
	// so that every trial's measured window begins a fresh GC cycle.
	runtime.GC()

	// --- measured run: the writer commits fig4WriterTxns transactions;
	// the reader runs until the writer is done.
	db := lsmLayer(opened)
	lsmBefore := db.Stats()
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	var (
		ws, rs     loopStats
		wg         sync.WaitGroup
		writerDone = make(chan struct{})
	)
	wg.Add(2)
	runStart := time.Now()
	go func() {
		defer wg.Done()
		defer close(writerDone)
		ws = w.write(p, tbls)
	}()
	go func() {
		defer wg.Done()
		rs = w.read(p, tbls, writerDone)
	}()
	wg.Wait()
	elapsed := time.Since(runStart).Seconds()
	cpuS := cpuSeconds() - cpu0
	rt := rt0.to(readRuntime())
	heapMB, heapPeakMB := heap.finish()
	runtime.KeepAlive(ctx) // the heap figure counts the recovered tables

	out := &trialOut{
		setupS:    setup.Seconds(),
		attempted: ws.commits + ws.aborts + rs.commits + rs.aborts,
		failed:    ws.aborts + rs.aborts,
	}
	out.check(ws.err == nil, "fig4_contended: writer: %v", ws.err)
	out.check(rs.err == nil, "fig4_contended: reader: %v", rs.err)
	out.check(ws.commits == fig4WriterTxns, "fig4_contended: writer committed %d txns, want %d", ws.commits, fig4WriterTxns)
	out.check(rs.violations == 0, "fig4_contended: %d C3 violations (reader saw a torn multi-state commit)", rs.violations)
	out.check(rs.aborts == 0, "fig4_contended: %d mvcc reader aborts (claim C1 wants 0)", rs.aborts)
	if len(out.problems) > 0 {
		return out, nil
	}

	commitMS := make([]float64, len(ws.lat))
	for i, us := range ws.lat {
		commitMS[i] = us / 1e3
	}
	// Every committed transaction, reader or writer, touches fig4TxnOps
	// rows plus the token of each state.
	out.elems = float64((ws.commits + rs.commits) * (fig4TxnOps + fig4States))
	out.txns, out.elapsedS = float64(ws.commits+rs.commits), elapsed
	out.cpuS = cpuS
	out.commitMS, out.heapMB, out.heapPeakMB = commitMS, heapMB, heapPeakMB
	out.named = map[string]float64{
		"total_tps":       out.txns / elapsed,
		"writer_tps":      float64(ws.commits) / elapsed,
		"read_txn_p50_us": median(append([]float64(nil), rs.lat...)),
		"commit_p50_us":   median(append([]float64(nil), ws.lat...)),
	}
	out.samples = map[string][]float64{"commit": ws.lat, "read_txn": rs.lat}

	if traced {
		m := map[string]float64{}
		rowBytes := fig4TxnOps*(len(fig4Key(0))+fig4ValueBytes) + fig4States*(len(fig4Token)+8)
		tr.callMetrics(m, float64(ws.commits)*float64(rowBytes))
		groupMetrics(m, group)
		tableMetrics(m, tbls...)
		runtimeMetrics(m, rt, out.elems)
		if err := lsmMetrics(m, lsmBefore, db.Stats(), opened, w.dir); err != nil {
			return nil, err
		}
		out.layer = m
		out.tracer = tr
	}
	return out, nil
}

// write is the closed-loop writer: each transaction writes fig4TxnOps
// Zipf-chosen rows alternating between the states, sets the token in
// every state, and commits; the next one begins when Commit returns.
func (w *fig4) write(p txn.Protocol, tbls []*txn.Table) loopStats {
	var s loopStats
	for i := 0; i < fig4WriterTxns; i++ {
		tx, err := p.Begin()
		if err != nil {
			s.err = err
			return s
		}
		keys := w.in.writerKeys[i*fig4TxnOps : (i+1)*fig4TxnOps]
		for j, k := range keys {
			if err = p.Write(tx, tbls[j%len(tbls)], k, w.value); err != nil {
				break
			}
		}
		token := encodeSeq(uint64(i + 1))
		for _, tbl := range tbls {
			if err != nil {
				break
			}
			err = p.Write(tx, tbl, fig4Token, token)
		}
		if err != nil {
			_ = p.Abort(tx)
			s.aborts++
			continue
		}
		start := time.Now()
		if err := p.Commit(tx); err != nil {
			if !txn.IsAbort(err) {
				s.err = err
				return s
			}
			s.aborts++
			continue
		}
		s.lat = append(s.lat, float64(time.Since(start))/1e3)
		s.commits++
	}
	return s
}

// read is the closed-loop reader: read-only transactions of fig4TxnOps
// point reads alternating between the states plus the token of every
// state, timed from Begin to Commit, until done closes.
func (w *fig4) read(p txn.Protocol, tbls []*txn.Table, done <-chan struct{}) loopStats {
	var s loopStats
	pool := w.in.readerKeys
	next := 0
	tokens := make([]uint64, len(tbls))
	for {
		select {
		case <-done:
			return s
		default:
		}
		start := time.Now()
		tx, err := p.BeginReadOnly()
		if err != nil {
			s.err = err
			return s
		}
		for j := 0; j < fig4TxnOps && err == nil; j++ {
			_, _, err = p.Read(tx, tbls[j%len(tbls)], pool[next])
			next = (next + 1) % len(pool)
		}
		for j, tbl := range tbls {
			if err != nil {
				break
			}
			var v []byte
			v, _, err = p.Read(tx, tbl, fig4Token)
			if len(v) == 8 {
				tokens[j] = binary.BigEndian.Uint64(v)
			}
		}
		if err == nil {
			err = p.Commit(tx)
		} else {
			_ = p.Abort(tx)
		}
		if err != nil {
			if !txn.IsAbort(err) {
				s.err = err
				return s
			}
			s.aborts++
			continue
		}
		if s.commits%fig4ReadSampleEvery == 0 {
			s.lat = append(s.lat, float64(time.Since(start))/1e3)
		}
		s.commits++
		for _, t := range tokens[1:] {
			if t != tokens[0] {
				s.violations++
				break
			}
		}
	}
}
