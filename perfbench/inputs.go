package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"sistream/internal/stream"
	"sistream/internal/zipf"
)

// Every input is generated from the run's seed before any clock starts;
// the same seed yields the same inputs, and every trial of a run replays
// them.

// streamInput is the element sequence of a stream workload: txnSize
// tuples per transaction, in transaction order.
type streamInput struct {
	tuples  []stream.Tuple
	txnSize int
	// distinct[k] is the number of distinct keys transaction k writes —
	// the data elements its commit delivers through the change feed.
	distinct []int
	// userBytes sums key and value bytes over all tuples.
	userBytes int64
}

func (in *streamInput) txns() int { return len(in.tuples) / in.txnSize }

// keyStrings renders n fixed-width decimal keys of width bytes.
func keyStrings(n, width int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%0*d", width, i)
	}
	return keys
}

func randomValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

// pipelineInput draws keys uniformly from keyCount 8-byte keys; values
// are 20 bytes, drawn from a small seeded pool.
func pipelineInput(seed int64, elements, txnSize, keyCount int) *streamInput {
	rng := rand.New(rand.NewSource(seed))
	keys := keyStrings(keyCount, 8)
	values := make([][]byte, 64)
	for i := range values {
		values[i] = randomValue(rng, 20)
	}
	in := &streamInput{tuples: make([]stream.Tuple, elements), txnSize: txnSize}
	seen := make(map[string]bool, txnSize)
	for i := range in.tuples {
		if i%txnSize == 0 {
			clear(seen)
		}
		k := keys[rng.Intn(keyCount)]
		v := values[rng.Intn(len(values))]
		in.tuples[i] = stream.Tuple{Key: k, Value: v, Ts: int64(i)}
		in.userBytes += int64(len(k) + len(v))
		seen[k] = true
		if i%txnSize == txnSize-1 {
			in.distinct = append(in.distinct, len(seen))
		}
	}
	return in
}

// buckets is the index-key domain of mixed_indexed: a row's bucket is
// the first byte of its value.
const buckets = 16

var bucketNames = func() [buckets]string {
	var out [buckets]string
	for i := range out {
		out[i] = fmt.Sprintf("b%02d", i)
	}
	return out
}()

func bucketOf(value []byte) int { return int(value[0]) % buckets }

// mixedInput draws keyCount 8-byte keys uniformly, distinct within each
// transaction, and gives every write of a key a bucket other than the
// key's previous one, so that each rewrite moves the row between index
// buckets: one posting removed, one added.
func mixedInput(seed int64, elements, txnSize, keyCount int) *streamInput {
	rng := rand.New(rand.NewSource(seed))
	keys := keyStrings(keyCount, 8)
	var values [buckets][]byte
	for b := range values {
		values[b] = randomValue(rng, 20)
		values[b][0] = byte(b)
	}
	last := make([]int8, keyCount)
	for i := range last {
		last[i] = -1
	}
	in := &streamInput{tuples: make([]stream.Tuple, elements), txnSize: txnSize}
	inTxn := make(map[int]bool, txnSize)
	for i := range in.tuples {
		if i%txnSize == 0 {
			clear(inTxn)
		}
		k := rng.Intn(keyCount)
		for inTxn[k] {
			k = rng.Intn(keyCount)
		}
		inTxn[k] = true
		b := rng.Intn(buckets)
		if last[k] >= 0 {
			b = (int(last[k]) + 1 + rng.Intn(buckets-1)) % buckets
		}
		last[k] = int8(b)
		in.tuples[i] = stream.Tuple{Key: keys[k], Value: values[b], Ts: int64(i)}
		in.userBytes += int64(len(keys[k]) + len(values[b]))
		if i%txnSize == txnSize-1 {
			in.distinct = append(in.distinct, txnSize)
		}
	}
	return in
}

// Reader request kinds of mixed_indexed.
const (
	reqPoint = iota
	reqLookup
	reqScan
)

// readRequest is one open-loop reader request: a burst of point reads,
// one bucket lookup, or one full scan.
type readRequest struct {
	kind   int
	keys   []string
	bucket string
}

// readerSchedule draws n requests: 90% bursts of pointReads snapshot
// reads, 8% index lookups of one bucket, 2% full scans.
func readerSchedule(seed int64, n, pointReads, keyCount int) []readRequest {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := keyStrings(keyCount, 8)
	reqs := make([]readRequest, n)
	for i := range reqs {
		switch x := rng.Intn(100); {
		case x < 90:
			r := readRequest{kind: reqPoint, keys: make([]string, pointReads)}
			for j := range r.keys {
				r.keys[j] = keys[rng.Intn(keyCount)]
			}
			reqs[i] = r
		case x < 98:
			reqs[i] = readRequest{kind: reqLookup, bucket: bucketNames[rng.Intn(buckets)]}
		default:
			reqs[i] = readRequest{kind: reqScan}
		}
	}
	return reqs
}

// fig4Key renders row k of the paper's table as a 4-byte big-endian key.
// Unlike internal/bench's decimal keyString, which keeps only the low
// digits that fit the width (a 4-byte key folds a 1M-row table onto
// 10,000 keys), every k below 2^32 gets a distinct key.
func fig4Key(k uint64) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(k))
	return string(b[:])
}

// fig4Input is the operation sequence of fig4_contended: the writer's
// keys (txnOps per transaction) and a cyclic pool of reader keys, both
// Zipf-distributed with parameter theta over rows keys.
type fig4Input struct {
	writerKeys []string
	readerKeys []string
}

func makeFig4Input(seed int64, rows, writerTxns, txnOps, readerPool int, theta float64) *fig4Input {
	params := zipf.NewParams(uint64(rows), theta)
	w := zipf.New(params, seed)
	r := zipf.New(params, seed+1_000_003)
	in := &fig4Input{
		writerKeys: make([]string, writerTxns*txnOps),
		readerKeys: make([]string, readerPool),
	}
	for i := range in.writerKeys {
		in.writerKeys[i] = fig4Key(w.Next())
	}
	for i := range in.readerKeys {
		in.readerKeys[i] = fig4Key(r.Next())
	}
	return in
}
