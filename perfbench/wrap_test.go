package main

import (
	"path/filepath"
	"testing"
	"time"

	"sistream/internal/kv"
	_ "sistream/internal/lsm" // registers the "lsm" backend
	"sistream/internal/txn"
)

// The traced run must not change which paths the engine takes: the store
// wrapper reports the wrapped store's capabilities, and the protocol
// wrapper passes the same optional-interface type assertions.

func TestTracedStoreKeepsCapabilities(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{"mem", "lsm:" + filepath.Join(dir, "db"), "fault+mem", "cache(8)+mem"} {
		st, err := kv.Open(spec, kv.OpenOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", spec, err)
		}
		wrapped := &tracedStore{Store: st, tr: newTracer(time.Now(), 1, 1)}
		if got, want := kv.CapabilitiesOf(wrapped), kv.CapabilitiesOf(st); got != want {
			t.Errorf("%s: wrapped capabilities %+v, bare %+v", spec, got, want)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close %s: %v", spec, err)
		}
	}
	// A store without declared capabilities keeps the conservative
	// default through the wrapper.
	bare := plainStore{kv.NewMem()}
	wrapped := &tracedStore{Store: bare, tr: newTracer(time.Now(), 1, 1)}
	if got, want := kv.CapabilitiesOf(wrapped), kv.CapabilitiesOf(bare); got != want {
		t.Errorf("undeclared store: wrapped capabilities %+v, bare %+v", got, want)
	}
}

// plainStore hides the memory store's Capabilities method.
type plainStore struct{ kv.Store }

// plainProtocol hides every optional interface of a protocol.
type plainProtocol struct{ txn.Protocol }

// segmentOnly exposes the segment fast path but not chain commits.
type segmentOnly struct {
	txn.Protocol
	txn.SegmentWriter
}

// chainOnly exposes chain commits but not the segment fast path.
type chainOnly struct {
	txn.Protocol
	txn.ChainCommitter
}

func TestTracedProtocolKeepsFastPaths(t *testing.T) {
	ctx := txn.NewContext()
	si := txn.NewSI(ctx)
	protocols := map[string]txn.Protocol{
		"mvcc":         si,
		"s2pl":         txn.NewS2PL(ctx),
		"bocc":         txn.NewBOCC(ctx),
		"plain":        plainProtocol{si},
		"segment-only": segmentOnly{si, si},
		"chain-only":   chainOnly{si, si},
	}
	for name, p := range protocols {
		wrapped := newTracedProtocol(p, newTracer(time.Now(), 1, 1))
		_, bareSW := p.(txn.SegmentWriter)
		_, wrapSW := wrapped.(txn.SegmentWriter)
		_, bareCC := p.(txn.ChainCommitter)
		_, wrapCC := wrapped.(txn.ChainCommitter)
		if bareSW != wrapSW || bareCC != wrapCC {
			t.Errorf("%s: SegmentWriter bare=%t wrapped=%t, ChainCommitter bare=%t wrapped=%t",
				name, bareSW, wrapSW, bareCC, wrapCC)
		}
		if wrapped.Name() != p.Name() {
			t.Errorf("%s: wrapped name %q, bare %q", name, wrapped.Name(), p.Name())
		}
	}
}

// TestFig4KeysDistinct pins what internal/bench's decimal keys get
// wrong: every row of the paper's 1M-row table has its own 4-byte key.
func TestFig4KeysDistinct(t *testing.T) {
	seen := make(map[string]bool, fig4Rows)
	for k := uint64(0); k < fig4Rows; k++ {
		key := fig4Key(k)
		if len(key) != 4 {
			t.Fatalf("key %d has %d bytes", k, len(key))
		}
		if seen[key] {
			t.Fatalf("key %d collides", k)
		}
		seen[key] = true
	}
}

func TestMixedInputMovesBuckets(t *testing.T) {
	const txnSize = 100
	in := mixedInput(7, 20_000, txnSize, 1_000)
	last := map[string]int{}
	for i, tp := range in.tuples {
		if i%txnSize == 0 {
			inTxn := map[string]bool{}
			for _, u := range in.tuples[i : i+txnSize] {
				if inTxn[u.Key] {
					t.Fatalf("txn %d writes %q twice", i/txnSize, u.Key)
				}
				inTxn[u.Key] = true
			}
		}
		b := bucketOf(tp.Value)
		if prev, ok := last[tp.Key]; ok && prev == b {
			t.Fatalf("tuple %d rewrites %q into its old bucket %d", i, tp.Key, b)
		}
		last[tp.Key] = b
	}
}

func TestPipelineInputCountsDistinctKeys(t *testing.T) {
	in := pipelineInput(3, 8_000, 8, 50)
	if len(in.distinct) != in.txns() {
		t.Fatalf("%d distinct counts for %d txns", len(in.distinct), in.txns())
	}
	for k, n := range in.distinct {
		keys := map[string]bool{}
		for _, tp := range in.tuples[k*8 : (k+1)*8] {
			keys[tp.Key] = true
		}
		if len(keys) != n {
			t.Fatalf("txn %d: %d distinct keys, input says %d", k, len(keys), n)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := makeFig4Input(5, 1000, 10, 10, 100, 2), makeFig4Input(5, 1000, 10, 10, 100, 2)
	for i := range a.writerKeys {
		if a.writerKeys[i] != b.writerKeys[i] {
			t.Fatalf("writer key %d differs between two runs of one seed", i)
		}
	}
	c := makeFig4Input(6, 1000, 10, 10, 100, 2)
	same := true
	for i := range a.readerKeys {
		same = same && a.readerKeys[i] == c.readerKeys[i]
	}
	if same {
		t.Fatal("seeds 5 and 6 drew the same reader keys")
	}
}
