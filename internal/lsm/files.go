package lsm

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A store directory is flat:
//
//	CURRENT        "checkpoint <n>\n": the live checkpoint (0 = none yet);
//	               segments numbered above n are the live log
//	<n>.ckpt       a checkpoint (see checkpoint.go)
//	<n>.wal        a log segment (see wal.go)
//	*.tmp          a file being written; renamed into place when complete
//
// Checkpoints and segments share one number sequence, so CURRENT's single
// number says both which checkpoint is live and which segments it folded.

const (
	currentName   = "CURRENT"
	currentPrefix = "checkpoint "
	tmpSuffix     = ".tmp"
)

func walName(num uint64) string  { return fmt.Sprintf("%06d.wal", num) }
func ckptName(num uint64) string { return fmt.Sprintf("%06d.ckpt", num) }

func walPath(dir string, num uint64) string  { return filepath.Join(dir, walName(num)) }
func ckptPath(dir string, num uint64) string { return filepath.Join(dir, ckptName(num)) }

// dirFiles is the inventory of a store directory.
type dirFiles struct {
	wals, ckpts []uint64 // ascending
	temps       []string // names of unfinished files
	maxNum      uint64
}

// listDir inventories dir. Names it does not know are left alone.
func listDir(dir string) (dirFiles, error) {
	var fs dirFiles
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fs, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, tmpSuffix) {
			fs.temps = append(fs.temps, name)
			continue
		}
		base, ext, _ := strings.Cut(name, ".")
		num, err := strconv.ParseUint(base, 10, 64)
		if err != nil {
			continue
		}
		switch ext {
		case "wal":
			fs.wals = append(fs.wals, num)
		case "ckpt":
			fs.ckpts = append(fs.ckpts, num)
		default:
			continue
		}
		fs.maxNum = max(fs.maxNum, num)
	}
	slices.Sort(fs.wals)
	slices.Sort(fs.ckpts)
	return fs, nil
}

// readCurrent returns the checkpoint number CURRENT names; ok is false
// when there is no CURRENT file.
func readCurrent(dir string) (num uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, currentName))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	num, err = parseCurrent(data)
	return num, err == nil, err
}

// parseCurrent decodes the contents of a CURRENT file.
func parseCurrent(data []byte) (uint64, error) {
	s, ok := strings.CutPrefix(string(data), currentPrefix)
	if ok {
		s, ok = strings.CutSuffix(s, "\n")
	}
	if ok && s != "" && len(s) <= 20 && strings.Trim(s, "0123456789") == "" {
		if num, err := strconv.ParseUint(s, 10, 64); err == nil {
			return num, nil
		}
	}
	return 0, fmt.Errorf("%w: CURRENT holds %q", errCorrupt, data)
}

// writeCurrent atomically points CURRENT at checkpoint num: write a temp
// file, sync it, rename it over CURRENT and sync the directory.
func writeCurrent(dir string, num uint64) error {
	tmp := filepath.Join(dir, currentName+tmpSuffix)
	err := writeSynced(tmp, []byte(fmt.Sprintf("%s%06d\n", currentPrefix, num)))
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, currentName))
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("lsm: switch CURRENT: %w", err)
	}
	return nil
}

func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and removals within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// removeFile deletes name from dir; a file already gone is not an error.
func removeFile(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
