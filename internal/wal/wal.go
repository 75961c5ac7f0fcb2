// Package wal is metisd's write-ahead log: a length+CRC-framed,
// fsync-batched append log over rotating segment files. The serve layer
// logs every acked arrival and every committed epoch tick; recovery
// replays the log to rebuild the exact pre-crash ledger, and the HA
// standby mirrors the raw segment bytes and replays them as they land.
//
// Durability model: Append buffers a frame and assigns it an Offset;
// the record is durable once WaitDurable(offset) returns. Waiters are
// batched — the first one in flushes and fsyncs for everyone queued
// behind it (group commit), so a 200-request batch pays one fsync, not
// 200.
//
// On-disk format, per segment file ("wal-%016d.seg"):
//
//	header  : "METISWAL" magic, uint32 version, uint64 segment seq
//	frame   : uint32 payload length, uint32 CRC-32C of payload, payload
//	payload : 1 type byte + body (both owned by the caller, opaque here)
//
// All integers are little-endian. The one caller, internal/serve, writes
// three binary bodies (serve/walcodec.go has the codec, DESIGN.md "Frame
// bodies" the table); ints are zig-zag varints, counts unsigned varints,
// floats raw IEEE-754 bits:
//
//	4 arrival : id, src, dst, start, end int; rate, value float
//	5 tick    : epoch, slot int; flags byte; count × outcome (id int,
//	            kind byte, degraded bool, start int, links ints, reason
//	            string); purchased ints; optional policy delta
//	6 fence   : token
//
// Types 1–3 carried the same records as JSON; serve refuses such a log
// by record type. There is no migration tool: no deployed log exists.
//
// A torn tail (crash mid-write) is repaired at Open by truncating at the
// first bad frame of the LAST segment, or by rewriting that segment's
// header when the header itself is torn; a bad frame in any earlier
// segment is corruption, not a torn tail, and Replay reports it as an
// error rather than silently dropping a durable suffix.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"metis/internal/fsx"
)

const (
	magic      = "METISWAL"
	version    = 1
	headerSize = len(magic) + 4 + 8 // magic + version + segment seq
	frameHdr   = 8                  // payload length + CRC-32C

	// MaxRecord bounds one record's payload; anything larger in a frame
	// header is treated as corruption.
	MaxRecord = 16 << 20

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Offset addresses one position in the log: a segment sequence number
// plus a raw byte offset within that segment file (header included).
// The zero Offset means "start of the log".
type Offset struct {
	Seg uint64 `json:"seg"`
	Pos int64  `json:"pos"`
}

// After reports whether o addresses a strictly later position than b.
func (o Offset) After(b Offset) bool {
	return o.Seg > b.Seg || (o.Seg == b.Seg && o.Pos > b.Pos)
}

// IsZero reports whether o is the start-of-log sentinel.
func (o Offset) IsZero() bool { return o.Seg == 0 && o.Pos == 0 }

func (o Offset) String() string { return fmt.Sprintf("%d:%d", o.Seg, o.Pos) }

// Options parameterize Open.
type Options struct {
	// SegmentBytes is the rotation threshold (default
	// DefaultSegmentBytes). Rotation happens on the first append past
	// it, so segments overshoot by at most one record.
	SegmentBytes int64
}

// Log is an append-only write-ahead log over one directory. Append and
// WaitDurable are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu  sync.Mutex // append path: file, buffer, positions, latched error
	f   *os.File
	w   *bufio.Writer
	seg uint64
	pos int64 // appended end within the current segment (raw file offset)
	err error // latched append/rotation failure: the log is dead past it

	sMu      sync.Mutex // group-commit state
	sCond    *sync.Cond
	syncing  bool
	durable  Offset
	syncErr  error         // latched fsync failure
	advanced chan struct{} // closed when durable next moves; made by WaitPast

	nAppends, nSyncs, nBytes int64 // fed to the obs instruments by the owner
}

// Open opens (or creates) the log in dir, repairing a torn tail left by
// a crash: the last segment is scanned frame by frame and truncated at
// the first bad frame, so the next Append continues from a clean end.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := ListSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}
	l.sCond = sync.NewCond(&l.sMu)
	if len(segs) == 0 {
		if err := l.createSegment(1); err != nil {
			return nil, err
		}
		l.durable = Offset{Seg: 1, Pos: l.pos}
		return l, nil
	}
	last := segs[len(segs)-1]
	end, err := repairTail(dir, last.Seq)
	if err != nil {
		return nil, err
	}
	if end < int64(headerSize) {
		// The header itself is torn (a crash in createSegment, or a
		// mirror that stopped inside it): the segment holds no record,
		// so it is written afresh.
		if err := os.Remove(segPath(dir, last.Seq)); err != nil {
			return nil, err
		}
		if err := l.createSegment(last.Seq); err != nil {
			return nil, err
		}
		l.durable = Offset{Seg: last.Seq, Pos: l.pos}
		return l, nil
	}
	f, err := os.OpenFile(segPath(dir, last.Seq), os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.w, l.seg, l.pos = f, bufio.NewWriterSize(f, 1<<16), last.Seq, end
	l.durable = Offset{Seg: last.Seq, Pos: end}
	return l, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

// SegmentInfo describes one on-disk segment file.
type SegmentInfo struct {
	Seq  uint64 `json:"seq"`
	Size int64  `json:"size"`
}

// ListSegments returns the log's segment files in sequence order.
func ListSegments(dir string) ([]SegmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SegmentInfo
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg", &seq); n != 1 || e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, SegmentInfo{Seq: seq, Size: info.Size()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	for i, s := range out {
		if i > 0 && s.Seq != out[i-1].Seq+1 {
			return nil, fmt.Errorf("wal: segment gap: %d then %d", out[i-1].Seq, s.Seq)
		}
	}
	return out, nil
}

func (l *Log) createSegment(seq uint64) error {
	f, err := os.OpenFile(segPath(l.dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], version)
	binary.LittleEndian.PutUint64(hdr[len(magic)+4:], seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := fsx.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.seg, l.pos = f, bufio.NewWriterSize(f, 1<<16), seq, int64(headerSize)
	return nil
}

// Append buffers one record and returns the offset just past it. The
// record is not durable until WaitDurable(returned offset) succeeds.
// An append or rotation failure latches: every later Append fails too.
func (l *Log) Append(typ byte, body []byte) (Offset, error) {
	if len(body)+1 > MaxRecord {
		return Offset{}, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(body)+1)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return Offset{}, l.err
	}
	if l.pos >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.err = err
			return Offset{}, err
		}
	}
	payload := len(body) + 1
	var hdr [frameHdr + 1]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(payload))
	hdr[frameHdr] = typ
	crc := crc32.Checksum(hdr[frameHdr:], castagnoli)
	crc = crc32.Update(crc, castagnoli, body)
	binary.LittleEndian.PutUint32(hdr[4:], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		l.err = err
		return Offset{}, err
	}
	if _, err := l.w.Write(body); err != nil {
		l.err = err
		return Offset{}, err
	}
	l.pos += int64(frameHdr + payload)
	l.nAppends++
	l.nBytes += int64(frameHdr + payload)
	cAppends.Inc()
	cBytes.Add(int64(frameHdr + payload))
	return Offset{Seg: l.seg, Pos: l.pos}, nil
}

// rotateLocked seals the current segment (flush + fsync + close) and
// starts the next one. Callers hold l.mu.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	sealed := Offset{Seg: l.seg, Pos: l.pos}
	if err := l.createSegment(l.seg + 1); err != nil {
		return err
	}
	// Everything in the sealed segment is durable now; lift the group
	// commit floor so waiters on it do not fsync the new (empty) file.
	l.sMu.Lock()
	l.advanceLocked(sealed)
	l.sMu.Unlock()
	return nil
}

// advanceLocked moves the durable end to end when that is later and
// wakes WaitPast. Callers hold l.sMu.
func (l *Log) advanceLocked(end Offset) {
	if !end.After(l.durable) {
		return
	}
	l.durable = end
	if l.advanced != nil {
		close(l.advanced)
		l.advanced = nil
	}
}

// AppendedEnd returns the offset just past the last buffered record.
func (l *Log) AppendedEnd() Offset {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Offset{Seg: l.seg, Pos: l.pos}
}

// DurableEnd returns the group-commit floor: everything at or before it
// has been fsynced.
func (l *Log) DurableEnd() Offset {
	l.sMu.Lock()
	defer l.sMu.Unlock()
	return l.durable
}

// WaitDurable blocks until every record at or before off is fsynced.
// Concurrent waiters batch: one of them performs the flush+fsync for
// the whole group. A sync failure latches — the log cannot promise
// durability after it.
func (l *Log) WaitDurable(off Offset) error {
	l.sMu.Lock()
	defer l.sMu.Unlock()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if !off.After(l.durable) {
			return nil
		}
		if l.syncing {
			l.sCond.Wait()
			continue
		}
		l.syncing = true
		l.sMu.Unlock()
		end, err := l.syncNow()
		l.sMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else {
			l.advanceLocked(end)
		}
		l.sCond.Broadcast()
	}
}

// WaitPast blocks until the durable end lies past off, or ctx ends, and
// returns the durable end. A replication fetch waits on it so a standby
// hears of each group commit without polling.
func (l *Log) WaitPast(ctx context.Context, off Offset) Offset {
	l.sMu.Lock()
	defer l.sMu.Unlock()
	for !l.durable.After(off) && ctx.Err() == nil {
		if l.advanced == nil {
			l.advanced = make(chan struct{})
		}
		advanced := l.advanced
		l.sMu.Unlock()
		select {
		case <-advanced:
		case <-ctx.Done():
		}
		l.sMu.Lock()
	}
	return l.durable
}

// Sync flushes and fsyncs everything appended so far.
func (l *Log) Sync() error {
	return l.WaitDurable(l.AppendedEnd())
}

// syncNow flushes the buffer and fsyncs the current segment, returning
// the appended end the fsync covers. The file lock is held across the
// fsync so a concurrent rotation cannot close the file under it; at
// group-commit granularity the serialization is the point.
func (l *Log) syncNow() (Offset, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return Offset{}, l.err
	}
	if err := l.w.Flush(); err != nil {
		l.err = err
		return Offset{}, err
	}
	if err := l.f.Sync(); err != nil {
		l.err = err
		return Offset{}, err
	}
	l.nSyncs++
	cFsyncs.Inc()
	return Offset{Seg: l.seg, Pos: l.pos}, nil
}

// Metrics returns the lifetime append/fsync/byte totals.
func (l *Log) Metrics() (appends, syncs, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nAppends, l.nSyncs, l.nBytes
}

// Close flushes, fsyncs and closes the log.
func (l *Log) Close() error {
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return syncErr
	}
	err := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return err
}

// ErrCorrupt marks a bad frame in the interior of the log — CRC
// mismatch, impossible length, or unknown garbage that cannot be
// explained as a torn tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// readHeader validates a segment file's header.
func readHeader(f io.Reader, wantSeq uint64) error {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return fmt.Errorf("wal: segment %d: short header: %w", wantSeq, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return fmt.Errorf("wal: segment %d: bad magic", wantSeq)
	}
	if v := binary.LittleEndian.Uint32(hdr[len(magic):]); v != version {
		return fmt.Errorf("wal: segment %d: version %d, want %d", wantSeq, v, version)
	}
	if seq := binary.LittleEndian.Uint64(hdr[len(magic)+4:]); seq != wantSeq {
		return fmt.Errorf("wal: segment %d: header says seq %d", wantSeq, seq)
	}
	return nil
}

// scanSegment reads frames from one segment starting at startPos
// (raw file offset; 0 or header-relative positions below headerSize are
// clamped to the header end). fn receives each record with the offset
// just past it. It returns the clean end position and, when the scan
// stopped early, the reason.
func scanSegment(dir string, seq uint64, startPos int64, fn func(end Offset, typ byte, body []byte) error) (cleanEnd int64, bad bool, err error) {
	f, err := os.Open(segPath(dir, seq))
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	size := fi.Size()
	if size < int64(headerSize) {
		return 0, true, nil // torn header: no record yet
	}
	if err := readHeader(f, seq); err != nil {
		return 0, false, err
	}
	pos := startPos
	if pos < int64(headerSize) {
		pos = int64(headerSize)
	}
	if pos > size {
		return size, false, nil
	}
	if _, err := f.Seek(pos, io.SeekStart); err != nil {
		return 0, false, err
	}
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHdr]byte
	for {
		if size-pos < int64(frameHdr) {
			return pos, size-pos > 0, nil // trailing partial header = torn tail
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return pos, true, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		want := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > MaxRecord || int64(length) > size-pos-int64(frameHdr) {
			return pos, true, nil // impossible length: torn or corrupt
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return pos, true, nil
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return pos, true, nil
		}
		pos += int64(frameHdr) + int64(length)
		if fn != nil {
			if err := fn(Offset{Seg: seq, Pos: pos}, payload[0], payload[1:]); err != nil {
				return pos, false, err
			}
		}
	}
}

// repairTail truncates segment seq at its last clean frame boundary and
// returns that end position.
func repairTail(dir string, seq uint64) (int64, error) {
	end, bad, err := scanSegment(dir, seq, 0, nil)
	if err != nil {
		return 0, err
	}
	if bad {
		if err := os.Truncate(segPath(dir, seq), end); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// Replay streams every record at an offset strictly after `from` to fn,
// in log order, and returns the end offset reached. A bad frame at the
// physical tail of the LAST segment is treated as a torn tail and ends
// the replay cleanly; a bad frame anywhere else is interior corruption
// and returns ErrCorrupt — the caller must not trust the prefix gap.
// fn errors abort the replay.
func Replay(dir string, from Offset, fn func(end Offset, typ byte, body []byte) error) (Offset, error) {
	segs, err := ListSegments(dir)
	if err != nil {
		return Offset{}, err
	}
	end := from
	for i, seg := range segs {
		if seg.Seq < from.Seg {
			continue
		}
		start := int64(0)
		if seg.Seq == from.Seg {
			start = from.Pos
		}
		cleanEnd, bad, err := scanSegment(dir, seg.Seq, start, fn)
		if err != nil {
			return Offset{Seg: seg.Seq, Pos: cleanEnd}, err
		}
		end = Offset{Seg: seg.Seq, Pos: cleanEnd}
		if bad {
			if i != len(segs)-1 {
				return end, fmt.Errorf("%w: segment %d offset %d is not the log tail", ErrCorrupt, seg.Seq, cleanEnd)
			}
			return end, nil
		}
	}
	return end, nil
}
