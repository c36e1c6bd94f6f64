package stream

import (
	"fmt"

	"sistream/internal/txn"
)

// The stateless operators below are fused: they cost no goroutine and no
// channel hop, running inline in whatever operator eventually consumes
// the stream (see batch.go). Their per-element state, where any exists
// (Punctuate), is touched by exactly one goroutine — the consumer's.
//
// The name parameters are kept for API stability; they were only ever
// the (unused) goroutine label even in the operator-per-goroutine
// engine, and fused stages cannot fail, so nothing references them.

// Map transforms data tuples one-to-one; punctuations pass through.
func (s *Stream) Map(name string, fn func(Tuple) Tuple) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind == KindData {
			e.Tuple = fn(e.Tuple)
		}
		emit(e)
	}, nil)
}

// Filter drops data tuples failing pred; punctuations pass through.
func (s *Stream) Filter(name string, pred func(Tuple) bool) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind == KindData && !pred(e.Tuple) {
			return
		}
		emit(e)
	}, nil)
}

// FlatMap maps one tuple to zero or more; punctuations pass through.
func (s *Stream) FlatMap(name string, fn func(Tuple, func(Tuple))) *Stream {
	_ = name
	return s.fuse(func(e Element, emit func(Element)) {
		if e.Kind != KindData {
			emit(e)
			return
		}
		tx := e.Tx
		fn(e.Tuple, func(t Tuple) {
			emit(Element{Kind: KindData, Tuple: t, Tx: tx})
		})
	}, nil)
}

// Punctuate inserts transaction boundary punctuations around groups of n
// data tuples — the data-centric "auto-commit every n elements" policy.
// Pre-existing punctuations in the input pass through and reset the
// counter, so explicit boundaries win over the automatic ones. The
// inserted punctuations land in-band inside the current batch.
func (s *Stream) Punctuate(n int) *Stream {
	if n <= 0 {
		panic("stream: Punctuate needs n >= 1")
	}
	s.t.note("operator", "punctuate", fmt.Sprintf("every=%d (fused)", n), nil)
	// explicit: inside a transaction delimited by punctuations already
	// present in the input — those are passed through untouched.
	// auto: inside a transaction this operator opened itself.
	var explicit, auto bool
	count := 0
	return s.fuse(func(e Element, emit func(Element)) {
		switch e.Kind {
		case KindData:
			if explicit {
				emit(e)
				return
			}
			if !auto {
				emit(Punctuation(KindBOT))
				auto = true
				count = 0
			}
			emit(e)
			count++
			if count >= n {
				emit(Punctuation(KindCommit))
				auto = false
			}
		case KindBOT:
			if auto {
				// Close the automatic batch before the explicit one.
				emit(Punctuation(KindCommit))
				auto = false
			}
			explicit = true
			emit(e)
		case KindCommit, KindRollback:
			explicit = false
			emit(e)
		default:
			emit(e)
		}
	}, func(emit func(Element)) {
		if auto {
			emit(Punctuation(KindCommit))
			auto = false
		}
	})
}

// Transactions interprets punctuations against protocol p: BOT begins a
// transaction whose handle is attached to every element up to the next
// COMMIT/ROLLBACK. Downstream stateful operators (ToTable) use the
// attached handle, so all states written by this query share one
// transaction — the precondition of the consistency protocol.
//
// tables lists the states the query maintains (each downstream ToTable
// target). They are declared on every transaction at Begin so the
// consistency protocol knows the full state list upfront and the LAST
// TO_TABLE operator in the pipeline becomes the commit coordinator; with
// a single ToTable the list may be empty.
//
// If Begin fails the error is recorded and the affected batch is dropped.
//
// Transactions runs as its own operator stage (not fused): its wait for
// the previous transaction's decision must overlap with the downstream
// operators processing that transaction, which requires a goroutine
// boundary. The query's transactions are strictly serialized — batch N+1
// begins only after batch N is decided. It is TransactionsTuned with a
// tuner pinned at window 1 (NewFixedTuner(1)).
func (s *Stream) Transactions(p txn.Protocol, tables ...*txn.Table) *Stream {
	return s.TransactionsTuned(p, NewFixedTuner(1), tables...)
}

// TransactionsTuned is Transactions with a bounded pipeline of undecided
// transactions: up to tun.Window() consecutive transactions of the query
// may be in flight at once, the enabling half of the fused commit spine
// (ParallelRegion.MergeTuned submits the lane-complete ones to the
// group-commit pipeline as one batch). The bound is re-read at every
// transaction begin, so a controller's resizes apply from the next
// transaction on while in-flight ones are never disturbed. A pinned tuner
// (NewFixedTuner) holds a static window; NewAutoTuner sizes it from
// observed commit latency. Pass the SAME tuner to the region's
// MergeTuned, which closes the feedback loop.
//
// The transactions are attached to one txn.Chain (a chain of one is a
// plain transaction), which keeps the serial-order semantics honest while
// they overlap: a chain successor's First-Committer-Wins check treats its
// predecessors' writes as serial history (not conflicts), and S2PL's
// wait-die lets a successor wait out a predecessor's locks. What a window
// above 1 does NOT preserve is read visibility BETWEEN the windowed
// transactions: transaction N+1 pins its snapshot before transaction N
// commits, so protocol reads inside the window may observe the
// pre-window state. Use windows on blind-write ingest spines (TO_TABLE
// pipelines); keep window 1 (Transactions) for queries that read the
// states they maintain.
func (s *Stream) TransactionsTuned(p txn.Protocol, tun *AutoTuner, tables ...*txn.Table) *Stream {
	if tun == nil {
		panic("stream: TransactionsTuned needs a tuner")
	}
	out := s.t.newStream()
	occ := occOf(out)
	s.t.note("operator", "transactions", fmt.Sprintf("protocol=%s %s (chained)", p.Name(), tun.describe()), func() string {
		return occ() + ", " + tun.live()
	})
	var cur *txn.Txn
	var inflight []*txn.Txn
	chain := txn.NewChain()
	ob := getBatch()
	s.consume("transactions", func(b []Element) {
		for _, e := range b {
			switch e.Kind {
			case KindBOT:
				// Bound the query's undecided transactions: batch N+1
				// begins only after batch N-window+1 is decided
				// downstream. Without any bound, pipelined batches
				// writing the same hot keys would be unboundedly many
				// concurrent transactions; with the chain attached, the
				// overlap within the window is conflict-exempt (see
				// txn.Chain). A loop, not an if: a tuner may shrink the
				// bound below the current in-flight count, and the excess
				// must drain before the next transaction begins.
				for len(inflight) >= tun.Window() {
					// Ship everything accumulated so far FIRST: the
					// awaited transaction's COMMIT must reach the
					// downstream coordinator, or its decision — the very
					// thing being awaited — could never happen.
					if len(ob) > 0 {
						out.ch <- ob
						ob = getBatch()
					}
					<-inflight[0].Done()
					inflight = inflight[1:]
				}
				tx, err := p.Begin()
				if err != nil {
					s.t.fail("transactions", fmt.Errorf("begin: %w", err))
					cur = nil
					continue
				}
				tx.SetChain(chain)
				if err := tx.Declare(tables...); err != nil {
					s.t.fail("transactions", fmt.Errorf("declare: %w", err))
					_ = p.Abort(tx)
					cur = nil
					continue
				}
				cur = tx
				e.Tx = cur
			case KindCommit, KindRollback:
				e.Tx = cur
				if cur != nil {
					inflight = append(inflight, cur)
				}
				cur = nil
			default:
				e.Tx = cur
			}
			ob = append(ob, e)
		}
		putBatch(b)
		if len(ob) > 0 {
			out.ch <- ob
			ob = getBatch()
		}
	}, func() {
		// Input ended mid-transaction: roll the dangling transaction back.
		if cur != nil {
			_ = p.Abort(cur)
			cur = nil
		}
		putBatch(ob)
		close(out.ch)
	})
	return out
}
