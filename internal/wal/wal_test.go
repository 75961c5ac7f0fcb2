package wal

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

type rec struct {
	typ  byte
	body []byte
}

func collect(t *testing.T, dir string, from Offset) ([]rec, Offset) {
	t.Helper()
	var out []rec
	end, err := Replay(dir, from, func(_ Offset, typ byte, body []byte) error {
		out = append(out, rec{typ, append([]byte(nil), body...)})
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out, end
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var offs []Offset
	for i := 0; i < 100; i++ {
		off, err := l.Append(byte(1+i%3), []byte(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, end := collect(t, dir, Offset{})
	if len(recs) != 100 {
		t.Fatalf("replayed %d records, want 100", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf(`{"i":%d}`, i); string(r.body) != want || r.typ != byte(1+i%3) {
			t.Fatalf("record %d = type %d %q, want type %d %q", i, r.typ, r.body, 1+i%3, want)
		}
	}
	if end != offs[len(offs)-1] {
		t.Fatalf("replay end %v, want %v", end, offs[len(offs)-1])
	}

	// Replay from a mid-log offset yields exactly the suffix.
	suffix, _ := collect(t, dir, offs[59])
	if len(suffix) != 40 {
		t.Fatalf("suffix replay from offs[59] got %d records, want 40", len(suffix))
	}
	if string(suffix[0].body) != `{"i":60}` {
		t.Fatalf("suffix starts with %q", suffix[0].body)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 20; i++ {
		if _, err := l.Append(1, body); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	recs, _ := collect(t, dir, Offset{})
	if len(recs) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(recs))
	}

	// Reopen appends into the last segment and the log stays readable.
	l2, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(2, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ = collect(t, dir, Offset{})
	if len(recs) != 21 || string(recs[20].body) != "tail" {
		t.Fatalf("after reopen: %d records, last %q", len(recs), recs[len(recs)-1].body)
	}
}

func TestTornTailRepair(t *testing.T) {
	for _, cut := range []int64{1, 3, 7} {
		dir := t.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := ListSegments(dir)
		path := segPath(dir, segs[0].Seq)
		// Tear the tail: drop the last `cut` bytes, as a crash mid-write
		// would.
		if err := os.Truncate(path, segs[0].Size-cut); err != nil {
			t.Fatal(err)
		}

		// Replay tolerates the torn tail and yields the clean prefix.
		recs, _ := collect(t, dir, Offset{})
		if len(recs) != 9 {
			t.Fatalf("cut %d: replayed %d records, want 9", cut, len(recs))
		}

		// Open repairs the tail and the log accepts appends again.
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if _, err := l2.Append(1, []byte("after-repair")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _ = collect(t, dir, Offset{})
		if len(recs) != 10 || string(recs[9].body) != "after-repair" {
			t.Fatalf("cut %d: after repair got %d records, last %q", cut, len(recs), recs[len(recs)-1].body)
		}
	}
}

// TestTornHeaderRepair: a last segment cut inside its header — a crash
// in createSegment, or a standby whose mirror round stopped there —
// holds no record. Replay ends cleanly before it and Open writes the
// header afresh; an earlier segment cut the same way is corruption.
func TestTornHeaderRepair(t *testing.T) {
	for _, keep := range []int64{0, 5, int64(headerSize) - 1} {
		dir := t.TempDir()
		l, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := l.Append(1, bytes.Repeat([]byte("y"), 60)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segPath(dir, 2), keep); err != nil {
			t.Fatal(err)
		}
		recs, end := collect(t, dir, Offset{})
		if len(recs) != 1 || end != (Offset{Seg: 2, Pos: 0}) {
			t.Fatalf("keep %d: replayed %d records to %v, want 1 to 2:0", keep, len(recs), end)
		}
		// A pass resuming from that end sees the same nothing.
		if more, _ := collect(t, dir, end); len(more) != 0 {
			t.Fatalf("keep %d: resumed pass replayed %d records", keep, len(more))
		}
		l2, err := Open(dir, Options{SegmentBytes: 64})
		if err != nil {
			t.Fatalf("keep %d: reopen: %v", keep, err)
		}
		if _, err := l2.Append(2, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		if recs, _ = collect(t, dir, Offset{}); len(recs) != 2 || string(recs[1].body) != "after" {
			t.Fatalf("keep %d: after repair %d records", keep, len(recs))
		}
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte("z"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath(dir, 2), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, Offset{}, func(Offset, byte, []byte) error { return nil }); err == nil {
		t.Fatal("a torn header before the last segment replayed cleanly")
	}
}

func TestInteriorCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte("y"), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need >= 2 segments, got %d", len(segs))
	}
	// Flip one byte in the middle of the FIRST segment: that is interior
	// corruption, not a torn tail, and replay must refuse to skip it.
	path := segPath(dir, segs[0].Seq)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+frameHdr+10] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, Offset{}, func(Offset, byte, []byte) error { return nil })
	if err == nil {
		t.Fatal("replay of interior-corrupt log succeeded; want ErrCorrupt")
	}
}

func TestGroupCommitConcurrentWaiters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			off, err := l.Append(1, []byte(fmt.Sprintf("c-%d", i)))
			if err != nil {
				errs <- err
				return
			}
			errs <- l.WaitDurable(off)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, syncs, _ := l.Metrics()
	if syncs >= n {
		t.Fatalf("group commit did not batch: %d fsyncs for %d waiters", syncs, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, dir, Offset{})
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
}

func TestMirrorRoundTrip(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := Open(src, Options{SegmentBytes: 300})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("m-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	// Pull the raw bytes across in small chunks, exactly as the standby
	// fetch loop does.
	pos := Offset{Seg: 1, Pos: 0}
	for {
		data, size, hasNext, err := ReadAt(src, pos.Seg, pos.Pos, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if err := MirrorAppend(dst, pos.Seg, pos.Pos, data); err != nil {
				t.Fatal(err)
			}
			pos.Pos += int64(len(data))
			continue
		}
		if pos.Pos >= size && hasNext {
			pos = Offset{Seg: pos.Seg + 1, Pos: 0}
			continue
		}
		break
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	want, _ := collect(t, src, Offset{})
	got, _ := collect(t, dst, Offset{})
	if len(got) != len(want) {
		t.Fatalf("mirror replayed %d records, source %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].body, want[i].body) {
			t.Fatalf("mirror record %d = %q, want %q", i, got[i].body, want[i].body)
		}
	}
	end, err := MirrorEnd(dst)
	if err != nil {
		t.Fatal(err)
	}
	srcEnd, _ := MirrorEnd(src)
	if end != srcEnd {
		t.Fatalf("mirror end %v, source end %v", end, srcEnd)
	}

	// A gap append must be refused.
	if err := MirrorAppend(dst, end.Seg, end.Pos+10, []byte("gap")); err == nil {
		t.Fatal("MirrorAppend accepted a gap")
	}
}
