// Package stream is the dataflow substrate of the reproduction: a
// channel-based stream-processing framework playing the role PipeFabric
// plays in the paper. A query is a Topology — a graph of operators
// connected by subscribed streams — and transaction boundaries travel
// in-band as punctuations (BOT / COMMIT / ROLLBACK control elements),
// implementing the paper's data-centric transaction model (Section 3).
//
// # Linking operators
//
// The four linking operators of the paper connect streams and
// transactional tables:
//
//	TO_TABLE     Stream.ToTable — applies stream tuples to a table inside
//	             the transaction delimited by the punctuations;
//	             ParallelRegion.ToTable is its keyed-parallel analogue.
//	TO_STREAM    ToStream — emits a stream of committed changes of a
//	             table (per-commit trigger policy);
//	             FromTablePartitioned is its partitioned analogue.
//	FROM(table)  TableSnapshot / QueryKeys — one-time snapshot queries.
//	FROM(stream) Hub.Attach — subscribe to a stream at the point of
//	             attachment.
//
// # Execution model
//
// Execution is vectorized: edges carry batches of elements and chains of
// stateless operators fuse into a single goroutine (see batch.go). The
// programming model is unchanged — sources emit and sinks observe one
// element at a time, and punctuations keep their exact in-band position.
//
// Queries parallelize on both sides of a table while preserving the
// paper's transaction model. Stream.Parallelize splits the ingest spine
// into keyed lanes whose private write segments merge into one shared
// transaction at a cyclic punctuation barrier (parallel.go), and
// FromTablePartitioned splits a table's change feed into per-partition
// commit watchers re-serialized by the same barrier (feed.go) — so
// per-key order and per-transaction atomicity hold end to end with no
// sequential stage between a source and a downstream sink.
//
// Stream.ToTable is the one-lane region closed by Merge, so a region is
// the only TO_TABLE write path, and Merge and MergeTuned share one
// per-transaction verdict path.
//
// The commit spine fuses too: TransactionsTuned runs a bounded window of
// a query's transactions concurrently, ParallelRegion.MergeTuned submits
// consecutive lane-complete transactions to the group-commit pipeline as
// one cross-transaction batch (one fsync for N small transactions), and
// one AutoTuner — pinned (NewFixedTuner) or self-tuning (NewAutoTuner) —
// sizes the window for both. ParallelRegion.Reparallelize wires a feed
// region's partitions directly into a downstream region's lanes when the
// partitioning matches — no merge hop, one spanning barrier.
//
// See DESIGN.md for the architecture narrative and the ordering /
// atomicity contracts each construct pins down.
package stream
