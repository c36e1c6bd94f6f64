package txn

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// The base image holds the rows a table recovered at CreateGroup — the
// in-memory copy of the paper's durable base table (Figure 3) — without
// one MVCC object per key. A recovered row is one arena entry plus one
// hash slot; an mvcc.Object is created only when a commit first writes
// the key (Table.object promotes it), and from then on the object
// shadows the entry.
//
// The image has one part per table key shard (same FNV-1a hash as the
// shard choice). A part is an append-only byte arena of
// [uvarint klen][key][uvarint vlen][value] entries and an
// open-addressing table of arena offsets. Neither holds a Go pointer, so
// the garbage collector never scans them however many rows the table
// recovered. A part is sealed before CreateGroup returns and never
// mutated afterwards, so readers use it without a lock.

// baseFibMul spreads the FNV hash over the slot table: every key of one
// part shares the hash's low shard bits, so the slot index comes from the
// top bits of a Fibonacci multiplication, which depend on all of them.
const baseFibMul = 0x9E3779B1

// basePart is one shard's slice of a table's base image.
type basePart struct {
	arena []byte
	// slots holds arena offset + 1 per entry (0 = empty); its length is a
	// power of two at least 4/3 of n.
	slots []uint32
	shift uint32 // 32 - log2(len(slots))
	n     int
}

// keyHash is 32-bit FNV-1a: it picks a key's table shard (low bits) and
// its base-image slot (all bits, see baseFibMul).
func keyHash[K string | []byte](key K) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// add appends one recovered row. The arena grows by amortized doubling,
// so building a part allocates nothing per row.
func (p *basePart) add(key, val []byte) error {
	size := 2*binary.MaxVarintLen64 + len(key) + len(val)
	if len(p.arena)+size >= math.MaxUint32 {
		return fmt.Errorf("txn: base image shard exceeds 4 GiB")
	}
	p.arena = binary.AppendUvarint(p.arena, uint64(len(key)))
	p.arena = append(p.arena, key...)
	p.arena = binary.AppendUvarint(p.arena, uint64(len(val)))
	p.arena = append(p.arena, val...)
	p.n++
	return nil
}

// seal trims the arena to its length and builds the slot table. The
// store scan yields each key once, so entries are inserted without a
// duplicate check.
func (p *basePart) seal() {
	if p.n == 0 {
		return
	}
	if cap(p.arena)-len(p.arena) > len(p.arena)/8 {
		p.arena = append([]byte(nil), p.arena...)
	}
	size, bits := 1, uint32(0)
	for size*3 < p.n*4 {
		size *= 2
		bits++
	}
	p.slots = make([]uint32, size)
	p.shift = 32 - bits
	mask := uint32(size - 1)
	for off := 0; off < len(p.arena); {
		key, _, next := p.entry(off)
		i := p.slot(keyHash(key))
		for p.slots[i] != 0 {
			i = (i + 1) & mask
		}
		p.slots[i] = uint32(off) + 1
		off = next
	}
}

// slot returns the home slot of hash h.
func (p *basePart) slot(h uint32) uint32 {
	return (h * baseFibMul) >> p.shift
}

// entry decodes the arena entry at off and returns the offset of the
// next one. The key aliases the arena (it is immutable once sealed), and
// the value's capacity is capped so an append cannot overwrite the
// following entry.
func (p *basePart) entry(off int) (key string, val []byte, next int) {
	a := p.arena[off:]
	kl, n := binary.Uvarint(a)
	a = a[n:]
	key = unsafe.String(unsafe.SliceData(a), int(kl))
	a = a[kl:]
	vl, m := binary.Uvarint(a)
	val = a[m : m+int(vl) : m+int(vl)]
	return key, val, off + n + int(kl) + m + int(vl)
}

// get returns the value of key's entry (h is keyHash(key)).
func (p *basePart) get(h uint32, key string) ([]byte, bool) {
	if p.n == 0 {
		return nil, false
	}
	mask := uint32(len(p.slots) - 1)
	for i := p.slot(h); p.slots[i] != 0; i = (i + 1) & mask {
		if k, v, _ := p.entry(int(p.slots[i] - 1)); k == key {
			return v, true
		}
	}
	return nil, false
}

// loadCommitted scans the table's rows in the base store into the base
// image, recording cts as the commit timestamp of every recovered row.
// The image is sealed into the shards before CreateGroup returns.
func (t *Table) loadCommitted(cts Timestamp) error {
	prefix := t.rowKey("")
	var parts [tableShards]basePart
	var addErr error
	err := t.store.Scan(prefix, prefixEnd(prefix), func(k, v []byte) bool {
		key := k[len(prefix):]
		addErr = parts[keyHash(key)&(tableShards-1)].add(key, v)
		return addErr == nil
	})
	if err == nil {
		err = addErr
	}
	if err != nil {
		return err
	}
	t.baseCTS = cts
	for i := range t.shards {
		parts[i].seal()
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.base = parts[i]
		sh.mu.Unlock()
	}
	return nil
}

// prefixEnd returns the exclusive upper bound of a scan over every key
// that starts with prefix. Row and posting prefixes end in '/', and state
// and index IDs cannot contain it (CreateTable, CreateIndex), so the
// bound is the prefix with that last byte incremented — a bound of
// prefix+0xff would miss keys whose first byte is 0xff.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	end[len(end)-1]++
	return end
}
