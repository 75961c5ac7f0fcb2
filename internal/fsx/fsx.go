// Package fsx holds the filesystem durability helper shared by the WAL
// and the standby's WAL mirror: the directory fsync that makes a new
// segment file's entry durable.
package fsx

import (
	"errors"
	"os"
	"syscall"
)

// SyncDir fsyncs a directory so a just-created entry is durable.
// Filesystems that cannot fsync directories (EINVAL/ENOTSUP) are
// tolerated: real IO errors surface through the data-file fsync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
			return nil
		}
		return err
	}
	return nil
}
