// Package lsm implements the repository's persistent key-value store: a
// write-ahead log plus one checkpoint folded from it in the background,
// after the checkpoint files of Hekaton (Diaconu et al., SIGMOD 2013).
//
// It is this repository's substitute for RocksDB, which the paper's
// evaluation (Section 5) uses as the persistent base table with the sync
// option enabled. The paper needs the base table only to be a durable
// key-value mapping (Section 4.1), and the engine above keeps every
// committed row in memory and reads its store only at recovery. So a
// write is one CRC-framed log record and nothing else: no memtable, no
// second image of the data. The property that matters for reproducing the
// paper's results is preserved — committed writes are made durable by a
// synchronous, batched log append, so the continuous writer is I/O-bound.
//
// # Files
//
// A store directory is flat: numbered log segments (.wal), at most one
// live checkpoint (.ckpt) and CURRENT, which names the checkpoint; the
// segments numbered above it are the live log. When the unfolded log
// reaches max(4 MiB, checkpoint size), Apply seals the active segment and
// starts one background fold, which merges the old checkpoint with the
// sealed segments (last writer wins, tombstones dropped) into a new
// checkpoint: keys strictly ascending in CRC-checked blocks, with a
// first-key block index. The fold installs it by fsync, rename and an
// atomic CURRENT switch, and only then deletes the folded files. Flush
// folds synchronously. Any WAL, fold, rename or CURRENT error latches
// the fail-stop state (ErrDBFailed): writes are refused, reads keep
// serving.
//
// # Reads
//
// Get and Scan merge index-seeked checkpoint blocks with a view of the
// live segments that is decoded on demand and dropped by the next Apply,
// so no copy of the data stays in memory. Scan's key and value slices are
// valid only during its callback.
//
// # Recovery
//
// Open loads the checkpoint CURRENT names, replays the live segments and
// deletes whatever an interrupted fold left behind (temp files,
// checkpoints CURRENT does not name, folded segments). Replay is strict
// about corruption: a torn FINAL record — a crash mid-append, never
// acknowledged durable — is discarded (counted in Stats.WALTornTails),
// but mid-segment corruption fails the Open, because the records after it
// were acknowledged and silently dropping them would be data loss.
// DumpWAL / `lsmtool wal-dump --skip-corrupt` is the salvage path for
// that situation: it decodes a log read-only and can resynchronize past
// corrupt records. VerifyDir checks a directory offline.
//
// The concurrency model is single-writer (writeMu serializes Apply, Sync,
// sealing, Flush and Close) with readers holding a shared latch for a
// whole Get or Scan; a fold runs beside both and takes the latch only to
// swap in its checkpoint. See DESIGN.md for how the transactional layers
// above use the store.
package lsm
