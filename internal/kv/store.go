// Package kv defines the key-value base-table abstraction underneath
// transactional states, mirroring the paper's Section 4.1 design decision
// that "any existing backend structure with a key-value mapping can be
// used" as the base table. The transactional table wrapper in
// internal/txn persists committed versions through this interface; the two
// implementations shipped with the repository are the in-memory Store in
// this package and the persistent LSM store in internal/lsm (the
// stand-in for RocksDB, which the paper's evaluation used).
package kv

import "errors"

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("kv: store is closed")

// Store is an ordered key-value map with batched, optionally synchronous
// (durable) writes. Implementations must be safe for concurrent use.
//
// Keys and values passed in are never aliased after the call returns;
// implementations copy what they retain. Values handed out by Get/Scan
// must not be modified by callers.
type Store interface {
	// Get returns the value stored under key, with found reporting
	// whether the key exists.
	Get(key []byte) (value []byte, found bool, err error)

	// Put stores value under key, replacing any existing value.
	Put(key, value []byte) error

	// Delete removes key. Deleting a missing key is not an error.
	Delete(key []byte) error

	// Apply atomically applies all operations in the batch. If sync is
	// true, the batch is durable when Apply returns (for persistent
	// stores this means an fsync'd log record — the paper's evaluation
	// runs its base table with the sync option enabled to "guarantee
	// failure atomicity").
	Apply(b *Batch, sync bool) error

	// Scan calls fn for every key-value pair with start <= key < end in
	// ascending key order. A nil start means the beginning; a nil end
	// means the end. Scanning stops early when fn returns false. The
	// slices passed to fn are valid only until fn returns (a store may
	// reuse its read buffer); callers copy what they keep.
	Scan(start, end []byte, fn func(key, value []byte) bool) error

	// Sync flushes all previously written data to stable storage.
	Sync() error

	// Close releases resources. Operations after Close return ErrClosed.
	Close() error
}

// Len returns the number of live keys in a store by scanning it; it is a
// testing/diagnostic helper, not a hot-path operation.
func Len(s Store) (int, error) {
	n := 0
	err := s.Scan(nil, nil, func(_, _ []byte) bool { n++; return true })
	return n, err
}
