// Package fsx holds the small filesystem durability helpers shared by
// the snapshot writer, the WAL and the standby's WAL mirror: atomic file
// replacement that survives a crash at any point (temp file in the
// target directory, fsync, rename, directory fsync), and the directory
// fsync that makes a new or renamed entry durable.
package fsx

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
)

// WriteAtomic replaces path with what fill writes, so that a crash at
// any point leaves either the old content or the new content, never a
// mix: fill writes a temp file in the same directory, which is fsynced,
// renamed over path, and the directory entry itself is fsynced.
func WriteAtomic(path string, perm os.FileMode, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := fill(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. Filesystems that cannot fsync directories (EINVAL/ENOTSUP)
// are tolerated — the rename itself was still atomic, and real IO
// errors surface through the data-file fsync.
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
