package lsm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
)

// A checkpoint is the folded image of the log: every live key once, in
// strictly ascending order, as a sorted string table.
//
//	data blocks   entries (uvarint key length, key, uvarint value
//	              length, value), then the CRC-32C of the entries
//	index block   per data block: uvarint offset, uvarint length (CRC
//	              included), uvarint first-key length, first key; then
//	              the CRC-32C of the index entries
//	footer        uint64 index offset, uint64 index length, uint64 entry
//	              count, uint32 CRC-32C of those 24 bytes, uint32 magic
//
// All integers are little-endian. Blocks are contiguous from offset 0 and
// end where the index starts. A point lookup binary-searches the index
// (held in memory) and reads one block; a scan seeks the same way and
// reads blocks in order.

const (
	ckptBlockBytes = 4 << 10 // data-block target size
	ckptFooterLen  = 32
	ckptMagic      = 0x53434b31 // "SCK1"
)

// ckptWriter streams ascending key-value pairs into a checkpoint.
type ckptWriter struct {
	w     *bufio.Writer
	off   uint64
	block []byte
	first []byte // first key of the open block
	prev  []byte
	index []byte
	count uint64
}

func newCkptWriter(w io.Writer) *ckptWriter {
	return &ckptWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// add appends one pair; keys must be strictly ascending.
func (cw *ckptWriter) add(key, value []byte) error {
	if cw.count > 0 && bytes.Compare(key, cw.prev) <= 0 {
		return fmt.Errorf("lsm: checkpoint keys out of order: %q after %q", key, cw.prev)
	}
	if len(cw.block) == 0 {
		cw.first = append(cw.first[:0], key...)
	}
	cw.block = binary.AppendUvarint(cw.block, uint64(len(key)))
	cw.block = append(cw.block, key...)
	cw.block = binary.AppendUvarint(cw.block, uint64(len(value)))
	cw.block = append(cw.block, value...)
	cw.prev = append(cw.prev[:0], key...)
	cw.count++
	if len(cw.block) >= ckptBlockBytes {
		return cw.finishBlock()
	}
	return nil
}

func (cw *ckptWriter) finishBlock() error {
	if len(cw.block) == 0 {
		return nil
	}
	cw.block = binary.LittleEndian.AppendUint32(cw.block, crc32.Checksum(cw.block, crcTable))
	if _, err := cw.w.Write(cw.block); err != nil {
		return err
	}
	cw.index = binary.AppendUvarint(cw.index, cw.off)
	cw.index = binary.AppendUvarint(cw.index, uint64(len(cw.block)))
	cw.index = binary.AppendUvarint(cw.index, uint64(len(cw.first)))
	cw.index = append(cw.index, cw.first...)
	cw.off += uint64(len(cw.block))
	cw.block = cw.block[:0]
	return nil
}

// finish writes the last block, the index and the footer, and flushes.
// The caller syncs and closes the underlying file.
func (cw *ckptWriter) finish() error {
	if err := cw.finishBlock(); err != nil {
		return err
	}
	cw.index = binary.LittleEndian.AppendUint32(cw.index, crc32.Checksum(cw.index, crcTable))
	var footer [ckptFooterLen]byte
	binary.LittleEndian.PutUint64(footer[0:8], cw.off)
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(cw.index)))
	binary.LittleEndian.PutUint64(footer[16:24], cw.count)
	binary.LittleEndian.PutUint32(footer[24:28], crc32.Checksum(footer[:24], crcTable))
	binary.LittleEndian.PutUint32(footer[28:32], ckptMagic)
	if _, err := cw.w.Write(cw.index); err != nil {
		return err
	}
	if _, err := cw.w.Write(footer[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// blockHandle locates one data block.
type blockHandle struct {
	first  []byte // first key; aliases the checkpoint's index buffer
	off, n int64
}

// checkpoint is an open, validated checkpoint file.
type checkpoint struct {
	num   uint64
	r     io.ReaderAt
	size  int64
	count uint64
	index []blockHandle
}

// openCheckpoint opens and validates the checkpoint numbered num in dir.
func openCheckpoint(dir string, num uint64) (*checkpoint, error) {
	f, err := os.Open(ckptPath(dir, num))
	if err != nil {
		return nil, fmt.Errorf("lsm: open checkpoint: %w", err)
	}
	fi, err := f.Stat()
	if err == nil {
		var c *checkpoint
		if c, err = parseCheckpoint(f, fi.Size()); err == nil {
			c.num = num
			return c, nil
		}
	}
	f.Close()
	return nil, fmt.Errorf("lsm: checkpoint %06d: %w", num, err)
}

// parseCheckpoint validates the footer and the block index of a
// checkpoint of the given size and loads the index. Data blocks are
// checked when they are read.
func parseCheckpoint(r io.ReaderAt, size int64) (*checkpoint, error) {
	if size < ckptFooterLen {
		return nil, fmt.Errorf("%w: %d bytes is too short for a footer", errCorrupt, size)
	}
	var footer [ckptFooterLen]byte
	if _, err := r.ReadAt(footer[:], size-ckptFooterLen); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(footer[28:32]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad footer magic", errCorrupt)
	}
	if binary.LittleEndian.Uint32(footer[24:28]) != crc32.Checksum(footer[:24], crcTable) {
		return nil, fmt.Errorf("%w: footer crc mismatch", errCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(footer[0:8])
	indexLen := binary.LittleEndian.Uint64(footer[8:16])
	body := uint64(size - ckptFooterLen)
	if indexLen < 4 || indexOff > body || indexLen != body-indexOff {
		return nil, fmt.Errorf("%w: footer places the index at %d+%d in %d bytes", errCorrupt, indexOff, indexLen, body)
	}
	data := make([]byte, indexLen)
	if _, err := r.ReadAt(data, int64(indexOff)); err != nil {
		return nil, err
	}
	data, sum := data[:indexLen-4], data[indexLen-4:]
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(data, crcTable) {
		return nil, fmt.Errorf("%w: index crc mismatch", errCorrupt)
	}
	c := &checkpoint{r: r, size: size, count: binary.LittleEndian.Uint64(footer[16:24])}
	var next uint64
	for len(data) > 0 {
		off, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index entry %d: bad offset", errCorrupt, len(c.index))
		}
		data = data[n:]
		blen, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("%w: index entry %d: bad length", errCorrupt, len(c.index))
		}
		data = data[n:]
		first, rest, ok := cutUvarintBytes(data)
		if !ok {
			return nil, fmt.Errorf("%w: index entry %d: bad first key", errCorrupt, len(c.index))
		}
		data = rest
		if off != next || blen <= 4 || blen > indexOff-off {
			return nil, fmt.Errorf("%w: index entry %d: block %d+%d does not follow %d", errCorrupt, len(c.index), off, blen, next)
		}
		if k := len(c.index); k > 0 && bytes.Compare(c.index[k-1].first, first) >= 0 {
			return nil, fmt.Errorf("%w: index entry %d: first keys not ascending", errCorrupt, k)
		}
		next = off + blen
		c.index = append(c.index, blockHandle{first: first, off: int64(off), n: int64(blen)})
	}
	if next != indexOff {
		return nil, fmt.Errorf("%w: blocks end at %d, index starts at %d", errCorrupt, next, indexOff)
	}
	return c, nil
}

// close releases the file.
func (c *checkpoint) close() error {
	if cl, ok := c.r.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// readBlock reads data block i into buf (grown as needed), checks its CRC
// and returns the entries.
func (c *checkpoint) readBlock(i int, buf []byte) ([]byte, error) {
	h := c.index[i]
	if int64(cap(buf)) < h.n {
		buf = make([]byte, h.n)
	}
	buf = buf[:h.n]
	if _, err := c.r.ReadAt(buf, h.off); err != nil {
		return nil, fmt.Errorf("lsm: checkpoint %06d block %d: %w", c.num, i, err)
	}
	data, sum := buf[:h.n-4], buf[h.n-4:]
	if binary.LittleEndian.Uint32(sum) != crc32.Checksum(data, crcTable) {
		return nil, fmt.Errorf("%w: checkpoint %06d block %d: crc mismatch", errCorrupt, c.num, i)
	}
	return data, nil
}

// seek returns the index of the block that holds key if any block does:
// the last block whose first key is <= key (0 when key precedes them all).
func (c *checkpoint) seek(key []byte) int {
	i := sort.Search(len(c.index), func(i int) bool { return bytes.Compare(c.index[i].first, key) > 0 })
	return max(i-1, 0)
}

// get returns a copy of the value stored under key.
func (c *checkpoint) get(key []byte) ([]byte, bool, error) {
	if len(c.index) == 0 {
		return nil, false, nil
	}
	it := c.iter(key, nil)
	if !it.next() {
		return nil, false, it.err
	}
	if !bytes.Equal(it.key, key) {
		return nil, false, nil
	}
	return bytes.Clone(it.val), true, nil
}

// iter returns an iterator over the pairs with key >= start (all pairs
// for a nil start). buf, when non-nil, is a block buffer to reuse.
func (c *checkpoint) iter(start, buf []byte) *ckptIter {
	it := &ckptIter{c: c, buf: buf, start: start, blk: -1}
	if start != nil {
		it.blk = c.seek(start) - 1
	}
	return it
}

// ckptIter walks a checkpoint in key order, one block at a time, checking
// every block's CRC and that keys strictly ascend within and across
// blocks. key and val alias the block buffer: they stay valid only until
// the next call to next.
type ckptIter struct {
	c        *checkpoint
	buf      []byte
	data     []byte // the unread entries of the current block
	start    []byte
	blk      int
	key, val []byte
	err      error
}

// next advances to the next pair; it returns false at the end or on an
// error, which err then holds.
func (it *ckptIter) next() bool {
	for {
		if len(it.data) > 0 {
			key, rest, ok := cutUvarintBytes(it.data)
			var val []byte
			if ok {
				val, rest, ok = cutUvarintBytes(rest)
			}
			if !ok {
				it.err = fmt.Errorf("%w: checkpoint %06d block %d: truncated entry", errCorrupt, it.c.num, it.blk)
				return false
			}
			if it.key != nil && bytes.Compare(key, it.key) <= 0 {
				it.err = fmt.Errorf("%w: checkpoint %06d block %d: keys out of order", errCorrupt, it.c.num, it.blk)
				return false
			}
			it.data, it.key, it.val = rest, key, val
			if it.start != nil && bytes.Compare(key, it.start) < 0 {
				continue
			}
			return true
		}
		if it.err != nil || it.blk+1 >= len(it.c.index) {
			return false
		}
		it.blk++
		h := it.c.index[it.blk]
		if it.key != nil && bytes.Compare(it.key, h.first) >= 0 {
			it.err = fmt.Errorf("%w: checkpoint %06d block %d: keys out of order", errCorrupt, it.c.num, it.blk)
			return false
		}
		data, err := it.c.readBlock(it.blk, it.buf)
		if err != nil {
			it.err = err
			return false
		}
		it.buf = data[:cap(data)]
		key, _, ok := cutUvarintBytes(data)
		if !ok || !bytes.Equal(key, h.first) {
			it.err = fmt.Errorf("%w: checkpoint %06d block %d: first key does not match the index", errCorrupt, it.c.num, it.blk)
			return false
		}
		it.data, it.key = data, nil
	}
}
