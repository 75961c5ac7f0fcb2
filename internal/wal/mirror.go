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

// ReadAt returns up to limit raw bytes of the log in dir from off, none
// past end: a leader passes its durable end, so only bytes on its disk
// cross. size is off's segment size up to end, and behind counts the
// bytes that lie between the chunk's end and end. off at or past size
// returns no data.
func ReadAt(dir string, off Offset, limit int, end Offset) (data []byte, size, behind int64, err error) {
	if off.Seg > end.Seg {
		return nil, 0, 0, nil
	}
	f, err := os.Open(segPath(dir, off.Seg))
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	if size, err = f.Seek(0, io.SeekEnd); err != nil {
		return nil, 0, 0, err
	}
	if off.Seg == end.Seg {
		size = min(size, end.Pos)
	}
	if off.Pos < size && limit > 0 {
		data = make([]byte, min(size-off.Pos, int64(limit)))
		if _, err := f.ReadAt(data, off.Pos); err != nil {
			return nil, 0, 0, err
		}
	}
	at := off.Pos + int64(len(data))
	if off.Seg == end.Seg {
		return data, size, max(end.Pos-at, 0), nil
	}
	// Segments before end's are sealed: their sizes are final.
	behind = max(size-at, 0) + end.Pos
	for seq := off.Seg + 1; seq < end.Seg; seq++ {
		fi, err := os.Stat(segPath(dir, seq))
		if err != nil {
			return nil, 0, 0, err
		}
		behind += fi.Size()
	}
	return data, size, behind, nil
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
