package lsm

import (
	"fmt"
)

// VerifyReport summarizes an offline VerifyDir pass over a store
// directory: what was checked and what recovery would make of it.
type VerifyReport struct {
	// Checkpoint is the checkpoint CURRENT names (0 = none yet).
	Checkpoint uint64
	// Blocks is the number of checkpoint data blocks whose checksums were
	// verified; Entries the pairs they hold.
	Blocks  int
	Entries uint64
	// WALs is the number of live segments recovery would replay;
	// WALRecords the durable records inside them; WALTornTails the
	// segments ending in a torn final record (a crash mid-append —
	// discarded by recovery, counted here so operators can tell expected
	// tails from silence).
	WALs         int
	WALRecords   int
	WALTornTails int
	// Orphans lists the files an interrupted fold left behind: temp
	// files, checkpoints CURRENT does not name and segments it has
	// folded. Recovery deletes them; they are reported, not failed.
	Orphans []string
}

// VerifyDir checks a closed store directory offline — without opening the
// database, so it never replays, truncates or deletes anything. It parses
// CURRENT, validates the checkpoint it names (footer, index CRC, first
// keys strictly ascending, every block's CRC, keys strictly ascending
// within and across blocks, the footer's entry count) and strictly decodes
// every live segment (mid-segment corruption is an error; a torn tail is
// not). The first violation aborts with a descriptive error; a nil error
// means recovery from this directory cannot silently lose or invent
// committed data.
func VerifyDir(dir string) (VerifyReport, error) {
	var rep VerifyReport
	ckNum, ok, err := readCurrent(dir)
	if err != nil {
		return rep, err
	}
	if !ok {
		return rep, fmt.Errorf("lsm: verify %s: no CURRENT file (not an initialized store)", dir)
	}
	rep.Checkpoint = ckNum
	files, err := listDir(dir)
	if err != nil {
		return rep, err
	}
	if ckNum > 0 {
		if err := verifyCheckpoint(dir, ckNum, &rep); err != nil {
			return rep, err
		}
	}
	rep.Orphans = append(rep.Orphans, files.temps...)
	for _, num := range files.ckpts {
		if num != ckNum {
			rep.Orphans = append(rep.Orphans, ckptName(num))
		}
	}
	for _, num := range files.wals {
		if num <= ckNum {
			rep.Orphans = append(rep.Orphans, walName(num))
			continue
		}
		st, err := replayWAL(walPath(dir, num), nil)
		rep.WALs++
		rep.WALRecords += st.records
		if st.tornTail {
			rep.WALTornTails++
		}
		if err != nil {
			return rep, fmt.Errorf("lsm: verify wal %06d: %w", num, err)
		}
	}
	return rep, nil
}

// verifyCheckpoint walks every block of checkpoint num.
func verifyCheckpoint(dir string, num uint64, rep *VerifyReport) error {
	c, err := openCheckpoint(dir, num)
	if err != nil {
		return err
	}
	defer c.close()
	it := c.iter(nil, nil)
	var count uint64
	for it.next() {
		count++
	}
	if it.err != nil {
		return it.err
	}
	rep.Blocks += len(c.index)
	rep.Entries += count
	if count != c.count {
		return fmt.Errorf("%w: checkpoint %06d footer claims %d entries, found %d", errCorrupt, num, c.count, count)
	}
	return nil
}
