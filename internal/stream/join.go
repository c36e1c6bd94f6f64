package stream

import (
	"sistream/internal/txn"
)

// Joined is the result of a table-lookup join for one stream tuple.
type Joined struct {
	// Stream is the incoming tuple.
	Stream Tuple
	// TableValue is the joined row's value; nil when the key was absent
	// (the join is an outer join — see TableJoin).
	TableValue []byte
	// Matched reports whether the table had a visible row for the key.
	Matched bool
}

// TableJoin enriches each data tuple with the row of tbl under the
// tuple's key — the stream-table lookup join pattern of the paper's
// Figure 1 (the Verify operator joining measurements against the
// Specification state). Reads happen under the element's attached
// transaction when one is present (so a query joining the tables it also
// maintains sees its own uncommitted writes); otherwise each lookup runs
// in its own read-only snapshot transaction.
//
// fn maps the join result to an output tuple; returning false drops the
// element (an inner join keeps only fn(..)==true for matched rows).
// Punctuations pass through. Batches are filtered and rewritten in place.
//
// Placement: when joining under the query's transaction, TableJoin must
// sit UPSTREAM of the query's final ToTable — the operator that flips the
// last consistency-protocol flag commits the transaction, and operator
// stages run concurrently, so a join placed after it may find the
// transaction already finished (such elements are dropped). A ToTable
// applies a transaction's writes when the transaction's punctuation
// reaches it (its lanes flush their write segments at the boundary), so
// a join downstream of a ToTable on the same table never sees that
// transaction's writes from it: the transaction's data elements pass the
// ToTable before the flush.
func (s *Stream) TableJoin(name string, p txn.Protocol, tbl *txn.Table, fn func(Joined) (Tuple, bool)) *Stream {
	out := s.t.newStream()
	s.consume(name, func(b []Element) {
		w := 0
		for _, e := range b {
			if e.Kind != KindData {
				b[w] = e
				w++
				continue
			}
			var value []byte
			var matched bool
			if e.Tx != nil {
				v, ok, err := p.Read(e.Tx, tbl, e.Tuple.Key)
				if err != nil {
					if txn.IsAbort(err) || err == txn.ErrFinished {
						continue // transaction gone; drop the element
					}
					s.t.fail(name, err)
					continue
				}
				value, matched = v, ok
			} else {
				rtx, err := p.BeginReadOnly()
				if err != nil {
					s.t.fail(name, err)
					continue
				}
				v, ok, err := p.Read(rtx, tbl, e.Tuple.Key)
				if err != nil {
					_ = p.Abort(rtx)
					if txn.IsAbort(err) {
						continue
					}
					s.t.fail(name, err)
					continue
				}
				if ok {
					value = append([]byte(nil), v...)
				}
				if err := p.Commit(rtx); err != nil {
					continue // validation abort (BOCC): drop, upstream retries
				}
				matched = ok
			}
			t, keep := fn(Joined{Stream: e.Tuple, TableValue: value, Matched: matched})
			if !keep {
				continue
			}
			b[w] = Element{Kind: KindData, Tuple: t, Tx: e.Tx}
			w++
		}
		if w == 0 {
			putBatch(b)
			return
		}
		out.ch <- b[:w]
	}, func() { close(out.ch) })
	return out
}
