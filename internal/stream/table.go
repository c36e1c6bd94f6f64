package stream

import (
	"fmt"
	"sync/atomic"

	"sistream/internal/txn"
)

// ToTableStats counts the outcomes of a ToTable operator.
type ToTableStats struct {
	// Writes is the number of applied tuple writes (including deletes).
	Writes atomic.Int64
	// Commits counts CommitState calls that succeeded.
	Commits atomic.Int64
	// Aborts counts transactions lost to conflicts or explicit rollback.
	Aborts atomic.Int64
}

// ToTable is the paper's TO_TABLE linking operator: it applies data
// tuples to tbl inside the transaction attached to the elements
// (inserted/updated when Tuple.Delete is false, deleted otherwise) and
// drives the consistency protocol on punctuations — CommitState on
// COMMIT, Abort on ROLLBACK. Elements pass through so further ToTable
// operators can maintain additional states within the same transaction.
//
// It is the one-lane ParallelRegion closed with Merge, so it shares the
// region's write path and verdict code: the transaction's tuples collect
// in a write segment that is applied in one batched write at the
// transaction's punctuation, and the commit runs at the barrier before
// the COMMIT is forwarded downstream. A conflict abort from the protocol
// (e.g. First-Committer-Wins) poisons the transaction, which the COMMIT
// then aborts globally (one abort in stats.Aborts). The returned stats
// object is live.
func (s *Stream) ToTable(p txn.Protocol, tbl *txn.Table) (*Stream, *ToTableStats) {
	r := s.Parallelize(1, nil)
	stats := r.ToTable(p, tbl)
	return r.Merge("to_table/" + string(tbl.ID()) + "/merge"), stats
}

// TableChange is one committed row change delivered by ToStream.
type TableChange struct {
	// CTS is the commit timestamp of the transaction.
	CTS txn.Timestamp
	// State is the table the change belongs to.
	State txn.StateID
	// Key is the written (or deleted) row key.
	Key string
	// Value is the row value as of CTS; nil when the row was deleted.
	Value []byte
	// Deleted reports whether the change removed the row.
	Deleted bool
}

// ToStream is the paper's TO_STREAM linking operator with the per-commit
// trigger policy: it subscribes to group commits and emits one data
// element per changed row of tbl, in commit order. The element's Key is
// the row key, Value/Num are the committed value (Num parsed when the
// value is a decimal), Ts is the commit timestamp. The stream closes when
// stop is called, after the commits already queued are delivered. Each
// commit's changes ship as one batch (split at batchCap), so delivery
// stays prompt — a batch never waits for a later commit.
//
// The feed is the one-partition case of txn.Table.WatchPartitioned: it
// buffers up to txn.DefaultFeedBuf commits and, if a slow consumer falls
// that far behind, blocks the committing thread (backpressure) rather
// than dropping committed changes. Every undelivered commit is pinned
// into the GC horizon until its rows are read, exactly as on
// FromTablePartitioned's partitions, so reading a row at its commit's
// historical snapshot never meets a reclaimed version.
func ToStream(t *Topology, tbl *txn.Table, p txn.Protocol) (*Stream, func()) {
	feed, err := tbl.WatchPartitioned(1, 0, nil)
	if err != nil {
		panic(fmt.Sprintf("stream: ToStream: %v", err))
	}
	events := feed.Partitions()[0]
	out := t.newStream()
	t.spawn("to_stream/"+string(tbl.ID()), func() {
		defer close(out.ch)
		<-t.start
		for ev := range events {
			b := getBatch()
			for _, key := range ev.Keys {
				b = append(b, Element{Kind: KindData, Tuple: changeTuple(tbl, key, ev.CTS)})
				if len(b) >= batchCap {
					out.ch <- b
					b = getBatch()
				}
			}
			if len(b) > 0 {
				out.ch <- b
			} else {
				putBatch(b)
			}
			// The commit's rows are read (and copied): release its pin.
			feed.Ack(0)
		}
	})
	return out, feed.Stop
}

// changeTuple shapes one committed row change as a feed tuple — the
// single definition both TO_STREAM paths (ToStream, FromTablePartitioned)
// emit: Key is the row key, Ts the commit timestamp, Delete set when the
// row is gone at that snapshot, Value a private copy of the committed
// value (Num parsed when decimal). The row is read at the commit's own
// snapshot so the value is exactly what that transaction installed, even
// if later commits already overwrote it.
func changeTuple(tbl *txn.Table, key string, cts txn.Timestamp) Tuple {
	v, ok := tbl.ReadAt(key, cts)
	tuple := Tuple{Key: key, Ts: int64(cts), Delete: !ok}
	if ok {
		tuple.Value = append([]byte(nil), v...)
		var n float64
		if _, err := fmt.Sscanf(string(v), "%g", &n); err == nil {
			tuple.Num = n
		}
	}
	return tuple
}

// FromSnapshot is the analytical FROM(table) source: it scans tbl at the
// given pinned snapshot with `lanes` concurrent stripe scanners (see
// txn.Snapshot.ScanStripe) and emits one data element per visible row —
// Key the row key, Value the row's committed value at the snapshot, Ts
// the snapshot's commit timestamp. With lanes > 1 the per-lane streams
// are merged, so cross-key emission order is arbitrary; every visible
// row is emitted exactly once. The caller owns the snapshot: Release it
// after the topology ran (the scan holds its GC pin for the duration).
func FromSnapshot(t *Topology, snap *txn.Snapshot, tbl *txn.Table, lanes int) *Stream {
	if lanes < 1 {
		lanes = 1
	}
	name := "scan/" + string(tbl.ID())
	mk := func(lane int) *Stream {
		return t.Source(fmt.Sprintf("%s/stripe%d", name, lane), func(emit func(Element)) error {
			return snap.ScanStripe(tbl, lane, lanes, func(key string, value []byte) bool {
				emit(Element{Kind: KindData, Tuple: Tuple{Key: key, Value: value, Ts: int64(snap.CTS())}})
				return true
			})
		})
	}
	t.note("source", name, fmt.Sprintf("snapshot scan, cts=%d lanes=%d", snap.CTS(), lanes), nil)
	if lanes == 1 {
		return mk(0)
	}
	parts := make([]*Stream, lanes)
	for i := range parts {
		parts[i] = mk(i)
	}
	return Merge(name+"/merge", parts...)
}

// KV is one row of a snapshot query result.
type KV struct {
	Key   string
	Value []byte
}

// TableSnapshot is the paper's ad-hoc FROM(table) operator: it runs a
// read-only transaction and materializes every visible row of tbl under
// one consistent snapshot. Under BOCC the query may abort (validation);
// callers retry.
func TableSnapshot(p txn.Protocol, tbl *txn.Table) ([]KV, error) {
	tx, err := p.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	var rows []KV
	var scanErr error
	// Route through the protocol's Read for every key so protocol
	// semantics (locks, read sets) hold; keys are discovered via the
	// version store.
	seen := map[string]bool{}
	tbl.SnapshotScan(^txn.Timestamp(0), func(key string, _ []byte) bool {
		seen[key] = true
		return true
	})
	for key := range seen {
		v, ok, err := p.Read(tx, tbl, key)
		if err != nil {
			scanErr = err
			break
		}
		if ok {
			rows = append(rows, KV{Key: key, Value: append([]byte(nil), v...)})
		}
	}
	if scanErr != nil {
		_ = p.Abort(tx)
		return nil, scanErr
	}
	if err := p.Commit(tx); err != nil {
		return nil, err
	}
	return rows, nil
}

// QueryKeys reads the given keys of one or more tables under a single
// read-only transaction — the ad-hoc query shape of the paper's
// benchmark (N point reads per query). Results align with keys; a nil
// value means the key was not visible. The error may be an abort
// (ErrAborted family) under S2PL/BOCC; callers count and retry.
func QueryKeys(p txn.Protocol, reads []TableKey) ([][]byte, error) {
	tx, err := p.BeginReadOnly()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(reads))
	for i, r := range reads {
		v, ok, err := p.Read(tx, r.Table, r.Key)
		if err != nil {
			if !txn.IsAbort(err) {
				_ = p.Abort(tx)
			}
			return nil, err
		}
		if ok {
			out[i] = v
		}
	}
	if err := p.Commit(tx); err != nil {
		return nil, err
	}
	return out, nil
}

// TableKey addresses one read of QueryKeys.
type TableKey struct {
	Table *txn.Table
	Key   string
}
