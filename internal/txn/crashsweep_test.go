package txn

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sistream/internal/kv"
)

// This file is the crash-recovery property harness of the fail-stop
// durability layer: for random transaction scripts, every protocol and
// both commit-window shapes, it crashes the base store at EVERY write
// boundary, reopens, and asserts PREFIX DURABILITY — the recovered table
// contents equal the effects of exactly the acknowledged-and-durable
// prefix of the committed-transaction sequence, with the per-table
// watermark (Table.metaKey) consistent with that prefix. A two-group
// shape puts two tables in separate groups on one store, with scripted
// transactions spanning both. It is the
// robustness analogue of the spine-equivalence property tests: "recovery
// works" becomes an enforced invariant.

// sweepOp is one scripted write of table tbl (an index into the
// harness's tables).
type sweepOp struct {
	tbl int
	key string
	val string
	del bool
}

// sweepTxn is one scripted transaction (its ops, applied in order).
type sweepTxn []sweepOp

// makeSweepScript builds a deterministic pseudo-random script of n
// transactions. Keys are partitioned by window position (txns that can
// share a chain window touch disjoint keys — S2PL acquires its locks at
// write time, so same-window overlap would self-deadlock a single-driver
// harness) while txns at the same position across windows overwrite and
// delete each other's keys, exercising version overwrite and tombstones
// in recovery. With tables > 1 each op picks its table at random, and
// every other transaction gets one more op on the next table so that it
// spans at least two.
func makeSweepScript(rng *rand.Rand, n, window, tables int) []sweepTxn {
	script := make([]sweepTxn, n)
	for i := range script {
		slot := i % window
		nops := 1 + rng.Intn(3)
		tx := make(sweepTxn, 0, nops+1)
		for j := 0; j < nops; j++ {
			op := sweepOp{key: fmt.Sprintf("k%02d-%d", slot, rng.Intn(3))}
			if tables > 1 {
				op.tbl = rng.Intn(tables)
			}
			if rng.Intn(5) == 0 && i > 0 {
				op.del = true
			} else {
				op.val = fmt.Sprintf("v%d.%d", i, j)
			}
			tx = append(tx, op)
		}
		if tables > 1 && i%2 == 0 {
			tx = append(tx, sweepOp{tbl: (tx[0].tbl + 1) % tables, key: fmt.Sprintf("k%02d-s", slot), val: fmt.Sprintf("v%d.s", i)})
		}
		script[i] = tx
	}
	return script
}

// sweepTableID names table i of the harness; table i is alone in group
// "g" + its ID, so every table commits through its own pipeline.
func sweepTableID(i int) StateID {
	if i == 0 {
		return "sweep"
	}
	return StateID(fmt.Sprintf("sweep%d", i))
}

// openSweepTables creates the harness's tables over store, each in its
// own group.
func openSweepTables(t *testing.T, ctx *Context, store kv.Store, tables int) []*Group {
	t.Helper()
	groups := make([]*Group, tables)
	for i := range groups {
		tbl, err := ctx.CreateTable(sweepTableID(i), store, TableOptions{SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			groups[i], err = ctx.CreateGroup("g", tbl)
		} else {
			groups[i], err = ctx.CreateGroup(GroupID("g"+string(sweepTableID(i))), tbl)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return groups
}

func sweepProtocol(name string, ctx *Context) Protocol {
	switch name {
	case "mvcc":
		return NewSI(ctx)
	case "s2pl":
		return NewS2PL(ctx)
	case "bocc":
		return NewBOCC(ctx)
	}
	panic("unknown protocol " + name)
}

// runSweepScript drives the script against the fault store and reports
// which transactions were acknowledged as committed, in commit order,
// with the commit timestamp of each (window 1 only; the chain path leaves
// acked nil). With window > 1 it uses the chain-commit path (CommitChain
// batches of up to window transactions — the fused spine's shape);
// otherwise plain Commit per transaction. Driving continues after a
// crash so the sweep also verifies fail-fast behavior of every post-crash
// commit.
func runSweepScript(t *testing.T, proto string, window, tables int, script []sweepTxn, fault *kv.Fault) (committed []int, acked []Timestamp, groups []*Group, p Protocol) {
	t.Helper()
	ctx := NewContext()
	groups = openSweepTables(t, ctx, fault, tables)
	p = sweepProtocol(proto, ctx)

	apply := func(tx *Txn, s sweepTxn) error {
		for _, op := range s {
			tbl := groups[op.tbl].Tables()[0]
			var err error
			if op.del {
				err = p.Delete(tx, tbl, op.key)
			} else {
				err = p.Write(tx, tbl, op.key, []byte(op.val))
			}
			if err != nil {
				return err
			}
		}
		return nil
	}

	sawFailure := false
	noteErr := func(idx int, err error) {
		if err == nil {
			committed = append(committed, idx)
			if sawFailure {
				t.Fatalf("txn %d acknowledged AFTER a durability failure", idx)
			}
			return
		}
		if sawFailure && !errors.Is(err, ErrGroupFailed) {
			t.Fatalf("txn %d post-failure error = %v, want sticky ErrGroupFailed", idx, err)
		}
		sawFailure = true
	}

	if window <= 1 {
		for i, s := range script {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := apply(tx, s); err != nil {
				t.Fatalf("txn %d write: %v", i, err)
			}
			err = p.Commit(tx)
			noteErr(i, err)
			if err == nil {
				// A single driver: the newest LastCTS of any group is
				// this commit's timestamp.
				var cts Timestamp
				for _, g := range groups {
					cts = max(cts, g.LastCTS())
				}
				acked = append(acked, cts)
			}
		}
		return committed, acked, groups, p
	}

	cc, ok := p.(ChainCommitter)
	if !ok {
		t.Fatalf("protocol %s does not support chain commits", proto)
	}
	ch := NewChain()
	for start := 0; start < len(script); start += window {
		end := start + window
		if end > len(script) {
			end = len(script)
		}
		txs := make([]*Txn, 0, end-start)
		for i := start; i < end; i++ {
			tx, err := p.Begin()
			if err != nil {
				t.Fatal(err)
			}
			tx.SetChain(ch)
			if err := apply(tx, script[i]); err != nil {
				t.Fatalf("txn %d write: %v", i, err)
			}
			txs = append(txs, tx)
		}
		errs := cc.CommitChain(txs, []*Table{groups[0].Tables()[0]})
		for i := range errs {
			noteErr(start+i, errs[i][0])
		}
	}
	return committed, nil, groups, p
}

// sweepEffects replays the committed prefix of table tbl's writes into a
// flat map.
func sweepEffects(script []sweepTxn, committed []int, tbl int) map[string]string {
	want := map[string]string{}
	for _, idx := range committed {
		for _, op := range script[idx] {
			if op.tbl != tbl {
				continue
			}
			if op.del {
				delete(want, op.key)
			} else {
				want[op.key] = op.val
			}
		}
	}
	return want
}

// recoverSweep reopens the crashed store into a fresh context and
// returns each table's recovered watermark and contents.
func recoverSweep(t *testing.T, fault *kv.Fault, tables int) ([]Timestamp, []map[string]string) {
	t.Helper()
	re, err := fault.Reopen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { re.Close() })
	ctx := NewContext()
	recovered := make([]Timestamp, tables)
	got := make([]map[string]string, tables)
	for i, g := range openSweepTables(t, ctx, re, tables) {
		recovered[i] = g.LastCTS()
		got[i] = map[string]string{}
		g.Tables()[0].SnapshotScan(ctx.Now(), func(key string, value []byte) bool {
			got[i][key] = string(value)
			return true
		})
	}
	return recovered, got
}

// TestPropertyCrashRecoveryPrefixDurability is the sweep: for each
// protocol × shape (window 1, window 8, and window 1 over two groups with
// spanning transactions), first a fault-free counting run fixes the
// number of write boundaries, then one run per boundary crashes the
// store exactly there, reopens, and asserts the prefix-durability
// invariant plus post-crash fail-stop behavior.
func TestPropertyCrashRecoveryPrefixDurability(t *testing.T) {
	const nTxns = 16
	shapes := []struct{ window, tables int }{{1, 1}, {8, 1}, {1, 2}}
	for _, proto := range []string{"mvcc", "s2pl", "bocc"} {
		for _, shape := range shapes {
			window, tables := shape.window, shape.tables
			name := fmt.Sprintf("%s/window=%d", proto, window)
			if tables > 1 {
				name += fmt.Sprintf("/groups=%d", tables)
			}
			t.Run(name, func(t *testing.T) {
				script := makeSweepScript(rand.New(rand.NewSource(0xC0FFEE)), nTxns, window, tables)

				// Counting run: no faults; fixes the number of Apply
				// boundaries and the full committed sequence.
				clean := kv.NewFault(kv.NewMem())
				committedAll, _, _, _ := runSweepScript(t, proto, window, tables, script, clean)
				if len(committedAll) != nTxns {
					t.Fatalf("fault-free run committed %d/%d txns", len(committedAll), nTxns)
				}
				boundaries := int(clean.Stats().Applies)
				clean.Close()
				if boundaries == 0 {
					t.Fatal("no write boundaries to sweep")
				}

				// The sweep: crash at every boundary (and one past the
				// end — no crash — as a control).
				for k := 1; k <= boundaries+1; k++ {
					fault := kv.NewFault(kv.NewMem())
					fault.CrashAtApply(k)
					committed, acked, groups, p := runSweepScript(t, proto, window, tables, script, fault)

					if k <= boundaries {
						if !fault.Crashed() {
							t.Fatalf("crash=%d: store did not crash", k)
						}
						// Fail-stop: every group on the crashed store is
						// poisoned and a fresh commit fails fast while
						// reads still serve the acknowledged in-memory
						// state.
						for _, g := range groups {
							if g.Err() == nil {
								t.Fatalf("crash=%d: group %s not poisoned", k, g.ID())
							}
						}
						tx, err := p.Begin()
						if err != nil {
							t.Fatal(err)
						}
						tbl := groups[0].Tables()[0]
						if err := p.Write(tx, tbl, "post", []byte("x")); err != nil {
							t.Fatalf("crash=%d: buffered write failed: %v", k, err)
						}
						if err := p.Commit(tx); !errors.Is(err, ErrGroupFailed) {
							t.Fatalf("crash=%d: post-crash commit = %v, want ErrGroupFailed", k, err)
						}
						ro, _ := p.BeginReadOnly()
						if _, _, err := p.Read(ro, tbl, "k00-0"); err != nil {
							t.Fatalf("crash=%d: post-crash read = %v", k, err)
						}
						_ = p.Abort(ro)
					} else if len(committed) != nTxns {
						t.Fatalf("control run committed %d/%d", len(committed), nTxns)
					}

					// Prefix durability: what the reopened store recovers
					// for each table is exactly the effects of the
					// acknowledged commits on it — the acknowledged
					// sequence IS the durable prefix, because
					// acknowledgment follows the synced Apply.
					recovered, got := recoverSweep(t, fault, tables)
					for i := 0; i < tables; i++ {
						want := sweepEffects(script, committed, i)
						if len(got[i]) != len(want) {
							t.Fatalf("crash=%d: table %d recovered %d keys (%v), want %d (%v)", k, i, len(got[i]), got[i], len(want), want)
						}
						for key, val := range want {
							if got[i][key] != val {
								t.Fatalf("crash=%d: table %d recovered %q=%q, want %q", k, i, key, got[i][key], val)
							}
						}
					}
					// Watermark consistency, per table: zero with no
					// durable commit on it, otherwise it must not precede
					// any acknowledged commit on it (the commit's batch
					// carried it) — for a spanning commit, that is every
					// table it wrote.
					for i := 0; i < tables; i++ {
						touched := false
						for n, idx := range committed {
							wrote := false
							for _, op := range script[idx] {
								wrote = wrote || op.tbl == i
							}
							if !wrote {
								continue
							}
							touched = true
							if acked != nil && recovered[i] < acked[n] {
								t.Fatalf("crash=%d: table %d watermark %d precedes acked txn %d at %d", k, i, recovered[i], idx, acked[n])
							}
						}
						if !touched && recovered[i] != 0 {
							t.Fatalf("crash=%d: table %d watermark %d with no committed txn", k, i, recovered[i])
						}
						if touched && recovered[i] == 0 {
							t.Fatalf("crash=%d: table %d watermark lost", k, i)
						}
					}
					fault.Close()
				}
			})
		}
	}
}

// TestCrashSweepTornBatchDetectable: the harness's store-level batch
// atomicity is what the commit protocol relies on (a WAL record is
// atomic via its CRC framing). A store that tears a batch violates the
// contract, and the watermark makes the violation observable: the torn
// prefix excludes the trailing watermark op, so recovery sees rows newer
// than the watermark claims. This test documents that the tear is NOT
// silently absorbed — the recovered contents differ from every prefix.
func TestCrashSweepTornBatchDetectable(t *testing.T) {
	script := makeSweepScript(rand.New(rand.NewSource(7)), 4, 1, 1)
	fault := kv.NewFault(kv.NewMem())
	// Tear the 3rd commit's batch after a single op: rows of txn 2 leak
	// without its watermark bump.
	fault.TearApplyAt(3, 1)
	committed, _, _, _ := runSweepScript(t, "mvcc", 1, 1, script, fault)

	_, recovered := recoverSweep(t, fault, 1)
	got, want := recovered[0], sweepEffects(script, committed, 0)
	match := len(got) == len(want)
	if match {
		for key, val := range want {
			if got[key] != val {
				match = false
				break
			}
		}
	}
	if match {
		// The torn op happened to coincide with the acknowledged prefix
		// (e.g. it overwrote an existing value identically) — that would
		// make this test vacuous; the fixed seed avoids it.
		t.Fatal("torn batch was indistinguishable from a clean prefix; pick a different seed")
	}
}
