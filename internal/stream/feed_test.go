package stream

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sistream/internal/kv"
	"sistream/internal/txn"
)

// commitSig is the comparable signature of one committed transaction as
// seen on a change feed: its commit timestamp and the sorted row changes
// it delivered. An ordered []commitSig captures everything the feed must
// preserve — the commit (punctuation) sequence, each commit's element
// multiset, and per-key order (a key appears at most once per commit, so
// ordered commits induce the per-key sequence).
type commitSig struct {
	cts  int64
	rows string
}

func rowSig(tp Tuple) string {
	if tp.Delete {
		return tp.Key + "=DEL"
	}
	return tp.Key + "=" + string(tp.Value)
}

// feedEnv creates a one-table SI group over a mem store with the given
// initial version-array capacity (0 = mvcc.DefaultSlots). The feeds read
// rows at historical snapshots while Install-time reclamation runs
// concurrently, so a small capacity checks that every feed pins the
// commits it has not delivered yet.
func feedEnv(t *testing.T, slots int) (txn.Protocol, *txn.Table) {
	t.Helper()
	ctx := txn.NewContext()
	store := kv.NewMem()
	t.Cleanup(func() { store.Close() })
	tbl, err := ctx.CreateTable("feedprop", store, txn.TableOptions{VersionSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.CreateGroup("g", tbl); err != nil {
		t.Fatal(err)
	}
	return txn.NewSI(ctx), tbl
}

// runScriptIngest pushes the script through source → Punctuate →
// TransactionsTuned → (lanes) → TO_TABLE → MergeTuned, under a tuner
// pinned at window, with the feed topology already started, then stops
// the feed and waits for it to drain. With window > 1 the commit spine
// batches up to window transactions per group commit.
func runScriptIngest(t *testing.T, p txn.Protocol, tbl *txn.Table, script []scriptItem, punctuateN, lanes, window int, feedTop *Topology, stopFeed func()) {
	t.Helper()
	top := New("ingest")
	src := top.Source("script", func(emit func(Element)) error {
		for _, it := range script {
			if it.kind == KindData {
				emit(DataElement(Tuple{Key: it.key, Value: []byte(it.val), Delete: it.del}))
			} else {
				emit(Punctuation(it.kind))
			}
		}
		return nil
	})
	region, merge := pinnedRegion(src.Punctuate(punctuateN), p, window, lanes)
	region.ToTable(p, tbl)
	merge().Discard()
	feedTop.Start()
	if err := top.Run(); err != nil {
		t.Fatal(err)
	}
	stopFeed()
	if err := feedTop.Wait(); err != nil {
		t.Fatal(err)
	}
}

// sequentialFeedSigs runs the script with the sequential spine and the
// sequential TO_STREAM feed, returning the reference commit signatures
// (elements grouped by their commit timestamp, in commit order).
func sequentialFeedSigs(t *testing.T, script []scriptItem, punctuateN, slots int) []commitSig {
	t.Helper()
	p, tbl := feedEnv(t, slots)
	feedTop := New("feed-seq")
	out, stopFeed := ToStream(feedTop, tbl, p)
	collected := out.Collect()
	runScriptIngest(t, p, tbl, script, punctuateN, 1, 1, feedTop, stopFeed)

	var sigs []commitSig
	var rows []string
	flush := func() {
		if rows != nil {
			sort.Strings(rows)
			sigs[len(sigs)-1].rows = strings.Join(rows, ",")
			rows = nil
		}
	}
	for _, e := range <-collected {
		if e.Kind != KindData {
			t.Fatalf("sequential TO_STREAM emitted a %v punctuation", e.Kind)
		}
		if len(sigs) == 0 || sigs[len(sigs)-1].cts != e.Tuple.Ts {
			flush()
			sigs = append(sigs, commitSig{cts: e.Tuple.Ts})
		}
		rows = append(rows, rowSig(e.Tuple))
	}
	flush()
	return sigs
}

// feedWiring selects how the partitioned feed region is consumed:
// merged directly (the PR-4 shape), fused lane-for-lane into a
// downstream parallel region via Reparallelize (no merge hop, single
// spanning barrier), or re-routed through an explicit Merge →
// Parallelize seam (the unfused baseline the fusion removes).
type feedWiring int

const (
	wireMerge feedWiring = iota
	wireFused
	wireRerouted
)

func (w feedWiring) String() string {
	switch w {
	case wireFused:
		return "fused"
	case wireRerouted:
		return "rerouted"
	default:
		return "merge"
	}
}

// partitionedFeedSigs runs the script through lanes ingest lanes (window
// > 1 selecting the batching commit spine) with a parts-way partitioned
// feed consumed through the given wiring and merged back into one
// stream, returning the observed commit signatures and validating the
// punctuation framing. The downstream region applies an identity Map per
// lane so the fused wiring actually carries per-lane consumer chains.
func partitionedFeedSigs(t *testing.T, script []scriptItem, punctuateN, lanes, parts, window, slots int, wiring feedWiring) []commitSig {
	t.Helper()
	p, tbl := feedEnv(t, slots)
	feedTop := New("feed-part")
	region, stopFeed := FromTablePartitioned(feedTop, tbl, parts, nil)
	switch wiring {
	case wireFused:
		region = region.Reparallelize("repart", parts, nil)
	case wireRerouted:
		region = region.Merge("preMerge").Parallelize(parts, nil)
	}
	region = region.Apply(func(_ int, s *Stream) *Stream {
		return s.Map("identity", func(tp Tuple) Tuple { return tp })
	})
	collected := region.Merge("feedmerge").Collect()
	runScriptIngest(t, p, tbl, script, punctuateN, lanes, window, feedTop, stopFeed)

	var sigs []commitSig
	var rows []string
	depth := 0
	for _, e := range <-collected {
		switch e.Kind {
		case KindBOT:
			depth++
			if depth != 1 {
				t.Fatal("nested BOT in merged feed")
			}
			sigs = append(sigs, commitSig{cts: e.Tuple.Ts})
			rows = rows[:0]
		case KindData:
			if depth != 1 {
				t.Fatal("feed data element outside BOT/COMMIT")
			}
			if e.Tuple.Ts != sigs[len(sigs)-1].cts {
				t.Fatalf("element cts %d inside commit %d", e.Tuple.Ts, sigs[len(sigs)-1].cts)
			}
			rows = append(rows, rowSig(e.Tuple))
		case KindCommit:
			depth--
			if depth != 0 {
				t.Fatal("COMMIT without matching BOT in merged feed")
			}
			if e.Tuple.Ts != sigs[len(sigs)-1].cts {
				t.Fatalf("COMMIT cts %d closes commit %d", e.Tuple.Ts, sigs[len(sigs)-1].cts)
			}
			sort.Strings(rows)
			sigs[len(sigs)-1].rows = strings.Join(rows, ",")
		default:
			t.Fatalf("unexpected %v element in merged feed", e.Kind)
		}
	}
	if depth != 0 {
		t.Fatal("merged feed ended inside a transaction")
	}
	return sigs
}

// feedSlots are the version-array capacities the feed-equivalence suites
// run at: the default, and 2 slots, where every third install into a key
// reclaims or grows — a feed that read a commit's rows without pinning
// that commit would meet a later value or a false delete.
var feedSlots = []int{0, 2}

// TestPropertyFeedEquivalence: for random scripts, every ingest lane
// count × feed partition count must deliver exactly the sequential
// TO_STREAM path's changes — same commit sequence, same per-commit
// element multisets (and thus the same total multiset and per-key
// order), with the partitioned feed's punctuations correctly framed and
// appearing exactly once per transaction after the merge barrier.
func TestPropertyFeedEquivalence(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 7000))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			for _, slots := range feedSlots {
				want := sequentialFeedSigs(t, script, punctuateN, slots)
				for _, lanes := range []int{1, 2, 4} {
					for _, parts := range []int{1, 2, 4} {
						got := partitionedFeedSigs(t, script, punctuateN, lanes, parts, 1, slots, wireMerge)
						label := fmt.Sprintf("slots=%d lanes=%d parts=%d", slots, lanes, parts)
						if len(got) != len(want) {
							t.Fatalf("%s: %d feed commits, want %d", label, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: commit %d diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestPropertyFeedEquivalenceFusedSpine sweeps the FUSED end of the
// pipeline against the same sequential reference: windowed ingest with
// cross-transaction commit batching ({1,2,8}) feeding a partitioned feed
// consumed either fused (direct partition→lane wiring, single spanning
// barrier) or re-routed (explicit Merge → Parallelize seam). Every
// combination must deliver the sequential TO_STREAM signatures exactly.
func TestPropertyFeedEquivalenceFusedSpine(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + 7700))
			script := genScript(rng)
			punctuateN := 1 + rng.Intn(7)
			for _, slots := range feedSlots {
				want := sequentialFeedSigs(t, script, punctuateN, slots)
				for _, window := range []int{1, 2, 8} {
					for _, wiring := range []feedWiring{wireFused, wireRerouted} {
						got := partitionedFeedSigs(t, script, punctuateN, 4, 4, window, slots, wiring)
						label := fmt.Sprintf("slots=%d window=%d wiring=%s", slots, window, wiring)
						if len(got) != len(want) {
							t.Fatalf("%s: %d feed commits, want %d", label, len(got), len(want))
						}
						for i := range want {
							// Absolute commit timestamps shift under a window
							// (transaction N+1's Begin draws a timestamp before
							// transaction N commits); what must match is the
							// ordered per-commit row signature, with commit
							// timestamps strictly ascending.
							if got[i].rows != want[i].rows {
								t.Fatalf("%s: commit %d rows diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
							}
							if i > 0 && got[i].cts <= got[i-1].cts {
								t.Fatalf("%s: commit timestamps not ascending: %d then %d", label, got[i-1].cts, got[i].cts)
							}
						}
					}
				}
			}
		})
	}
}

// TestFeedPartitionedPerKeyOrder drives many updates of few keys through
// 4 lanes × 4 partitions and checks each key's value sequence on the
// merged feed is exactly its committed update sequence — the end-to-end
// per-key order guarantee of the shared-nothing pipeline.
func TestFeedPartitionedPerKeyOrder(t *testing.T) {
	p, tbl := feedEnv(t, 0)
	const elements, keys, commitEvery = 4000, 13, 50
	feedTop := New("feed-order")
	region, stopFeed := FromTablePartitioned(feedTop, tbl, 4, nil)
	collected := region.Merge("feedmerge").Collect()

	var script []scriptItem
	for i := 0; i < elements; i++ {
		script = append(script, scriptItem{
			kind: KindData,
			key:  fmt.Sprintf("k%d", i%keys),
			val:  fmt.Sprintf("v%d", i),
		})
	}
	runScriptIngest(t, p, tbl, script, commitEvery, 4, 1, feedTop, stopFeed)

	// Each commit writes each key at most once (write-set dedup keeps the
	// last value); expected per-key sequence is the last write of the key
	// in each transaction window that contains one.
	wantSeq := map[string][]string{}
	for start := 0; start < elements; start += commitEvery {
		end := start + commitEvery
		if end > elements {
			end = elements
		}
		last := map[string]int{}
		for i := start; i < end; i++ {
			last[fmt.Sprintf("k%d", i%keys)] = i
		}
		for k, i := range last {
			wantSeq[k] = append(wantSeq[k], fmt.Sprintf("v%d", i))
		}
	}
	gotSeq := map[string][]string{}
	for _, e := range <-collected {
		if e.Kind == KindData {
			gotSeq[e.Tuple.Key] = append(gotSeq[e.Tuple.Key], string(e.Tuple.Value))
		}
	}
	if len(gotSeq) != keys {
		t.Fatalf("feed saw %d keys, want %d", len(gotSeq), keys)
	}
	for k, want := range wantSeq {
		if fmt.Sprint(gotSeq[k]) != fmt.Sprint(want) {
			t.Fatalf("key %s: per-key order diverged\n got %v\nwant %v", k, gotSeq[k], want)
		}
	}
}
