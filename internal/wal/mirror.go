package wal

import (
	"fmt"
	"io"
	"os"

	"metis/internal/fsx"
)

// The mirror helpers move raw segment bytes between a leader and a
// standby without parsing frames: the leader side serves byte ranges
// out of its segment files, the standby side appends them verbatim to
// its own copy of the log. Frame integrity is re-established by Replay
// as the standby applies the mirror and by Open at promotion (CRCs +
// tail repair), so a fetch that lands mid-frame or mid-header is
// harmless.

// ReadAt returns up to max raw bytes of segment seq starting at file
// offset pos, plus the segment's current size and whether a later
// segment exists. pos at or past the size returns no data.
func ReadAt(dir string, seq uint64, pos int64, max int) (data []byte, size int64, hasNext bool, err error) {
	f, err := os.Open(segPath(dir, seq))
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	size, err = f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, false, err
	}
	if _, statErr := os.Stat(segPath(dir, seq+1)); statErr == nil {
		hasNext = true
	}
	if pos >= size || max <= 0 {
		return nil, size, hasNext, nil
	}
	n := size - pos
	if n > int64(max) {
		n = int64(max)
	}
	data = make([]byte, n)
	if _, err := f.ReadAt(data, pos); err != nil {
		return nil, 0, false, err
	}
	return data, size, hasNext, nil
}

// MirrorAppend appends raw segment bytes at (seq, pos) to the local
// copy in dir, creating the segment file when pos is 0, and fsyncs. The
// local file size must equal pos — the mirror only ever extends its own
// contiguous prefix of the leader's log.
func MirrorAppend(dir string, seq uint64, pos int64, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := segPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if size != pos {
		return fmt.Errorf("wal: mirror gap: segment %d is %d bytes locally, leader bytes start at %d", seq, size, pos)
	}
	if len(data) == 0 {
		return nil
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if pos == 0 {
		return fsx.SyncDir(dir)
	}
	return nil
}

// MirrorEnd returns the end of the local mirror: the last segment's
// sequence and size. A dir with no segments returns the zero Offset.
func MirrorEnd(dir string) (Offset, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return Offset{}, err
	}
	if len(segs) == 0 {
		return Offset{}, nil
	}
	last := segs[len(segs)-1]
	return Offset{Seg: last.Seq, Pos: last.Size}, nil
}
