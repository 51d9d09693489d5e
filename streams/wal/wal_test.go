package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/streams"
)

// testBatch builds a batch exercising every column kind, the key
// dictionary and the arrival column.
func testBatch(n int, seed int64) *streams.Batch {
	b := streams.NewBatch("TestSDE", "stream-a")
	keys := []string{"bus-1", "bus-2", "sensor-9"}
	// Create all columns before taking pointers: column creation appends
	// to b.Cols, which would invalidate earlier *Col pointers.
	b.FloatCol("flow")
	b.IntCol("count")
	b.BoolCol("congested")
	b.StrCol("line")
	b.ListCol("close")
	f, i, bo, s, l := b.Col("flow"), b.Col("count"), b.Col("congested"), b.Col("line"), b.Col("close")
	for r := 0; r < n; r++ {
		t := seed + int64(r)*7
		b.Append(t, t+int64(r%3), keys[r%len(keys)])
		f.AppendFloat(float64(r) * 1.5)
		i.AppendInt(int64(r*r) - 3)
		bo.AppendBool(r%2 == 0)
		s.AppendStr(keys[(r+1)%len(keys)])
		l.AppendList([]int32{int32(r), int32(r) + 300}[:(r+1)%3]...)
	}
	return b
}

func batchEqual(t *testing.T, a, b *streams.Batch) {
	t.Helper()
	if a.Type != b.Type || a.Source != b.Source {
		t.Fatalf("type/source mismatch: %q/%q vs %q/%q", a.Type, a.Source, b.Type, b.Source)
	}
	if !reflect.DeepEqual(a.Times, b.Times) {
		t.Fatalf("times mismatch: %v vs %v", a.Times, b.Times)
	}
	if !reflect.DeepEqual(a.Arrivals, b.Arrivals) {
		t.Fatalf("arrivals mismatch: %v vs %v", a.Arrivals, b.Arrivals)
	}
	if !reflect.DeepEqual(a.Keys, b.Keys) {
		t.Fatalf("keys mismatch: %v vs %v", a.Keys, b.Keys)
	}
	if len(a.Cols) != len(b.Cols) {
		t.Fatalf("column count mismatch: %d vs %d", len(a.Cols), len(b.Cols))
	}
	for ci := range a.Cols {
		ca, cb := &a.Cols[ci], &b.Cols[ci]
		if ca.Name != cb.Name || ca.Kind != cb.Kind {
			t.Fatalf("column %d mismatch: %s/%d vs %s/%d", ci, ca.Name, ca.Kind, cb.Name, cb.Kind)
		}
		for r := 0; r < a.Len(); r++ {
			if !reflect.DeepEqual(ca.Value(r), cb.Value(r)) {
				t.Fatalf("column %s row %d: %v vs %v", ca.Name, r, ca.Value(r), cb.Value(r))
			}
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	orig := testBatch(50, 1000)
	payload := EncodeBatch(nil, orig)
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	batchEqual(t, orig, got)
}

func TestCodecRoundTripNoArrivalsNoDict(t *testing.T) {
	b := streams.NewBatch("Plain", "s")
	b.Append(10, -1, "k1")
	b.Append(20, -1, "k2")
	// Plain keys, no key dictionary.
	b.KIdx, b.KDict = nil, nil
	payload := EncodeBatch(nil, b)
	got, err := DecodeBatch(payload)
	if err != nil {
		t.Fatalf("DecodeBatch: %v", err)
	}
	batchEqual(t, b, got)
}

func TestCodecRejectsCorruption(t *testing.T) {
	payload := EncodeBatch(nil, testBatch(20, 500))
	// Every single-byte truncation must fail cleanly, not panic.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeBatch(payload[:cut]); err == nil {
			// A truncation can only be valid if it still forms a
			// complete batch — impossible for a strict prefix here.
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	if _, err := DecodeBatch(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatalf("trailing byte accepted")
	}
}

func appendN(t *testing.T, l *Log, n int, seed int64) (offsets []int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload := EncodeBatch(nil, testBatch(5+i%7, seed+int64(i)*100))
		start, end, err := l.Append(payload)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if end != start+frameHeader+int64(len(payload)) {
			t.Fatalf("Append %d: end %d inconsistent with start %d + frame", i, end, start)
		}
		offsets = append(offsets, start)
	}
	return offsets
}

func readAll(t *testing.T, dir string, from int64) (starts []int64, payloads [][]byte) {
	t.Helper()
	r, err := OpenReader(dir, from)
	if err != nil {
		t.Fatalf("OpenReader(%d): %v", from, err)
	}
	for {
		p, start, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			return starts, payloads
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		starts = append(starts, start)
		payloads = append(payloads, append([]byte(nil), p...))
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 10, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, payloads := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("read offsets %v, appended %v", starts, offsets)
	}
	for i, p := range payloads {
		b, err := DecodeBatch(p)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		batchEqual(t, testBatch(5+i%7, int64(i)*100), b)
	}
	// Reading from a mid-log record boundary yields the suffix.
	mid := len(offsets) / 2
	starts, _ = readAll(t, dir, offsets[mid])
	if !reflect.DeepEqual(starts, offsets[mid:]) {
		t.Fatalf("suffix read %v, want %v", starts, offsets[mid:])
	}
	// Reading from the frontier yields clean EOF.
	r, err := OpenReader(dir, offsets[len(offsets)-1])
	if err != nil {
		t.Fatalf("OpenReader(last): %v", err)
	}
	if _, _, end, err := r.Next(); err != nil {
		t.Fatalf("Next(last): %v", err)
	} else if _, _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after last record: %v, want EOF", err)
	} else if starts, _ := readAll(t, dir, end); len(starts) != 0 {
		t.Fatalf("read from frontier returned %d records", len(starts))
	}
}

func TestRotationAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 20, 0)
	frontier := l.Frontier()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("post-rotation read %v, want %v", starts, offsets)
	}
	// Reopen resumes at the frontier and appends continue the offsets.
	l, err = Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l.Frontier() != frontier {
		t.Fatalf("reopened frontier %d, want %d", l.Frontier(), frontier)
	}
	more := appendN(t, l, 5, 9999)
	if more[0] != frontier {
		t.Fatalf("first post-reopen record at %d, want %d", more[0], frontier)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ = readAll(t, dir, 0)
	if got, want := len(starts), len(offsets)+len(more); got != want {
		t.Fatalf("%d records after reopen-append, want %d", got, want)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 5, 0)
	frontier := l.Frontier()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a torn append: garbage frame fragment at the tail.
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	garbage := []byte{0xff, 0x13, 0x00, 0x00, 0xde, 0xad}
	if _, err := f.Write(garbage); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close segment: %v", err)
	}
	// A reader tolerates the torn tail.
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("read through torn tail %v, want %v", starts, offsets)
	}
	// Open truncates it and reports the byte count.
	l, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l.Torn() != int64(len(garbage)) {
		t.Fatalf("Torn() = %d, want %d", l.Torn(), len(garbage))
	}
	if l.Frontier() != frontier {
		t.Fatalf("frontier %d after torn-tail truncate, want %d", l.Frontier(), frontier)
	}
	appendN(t, l, 1, 777)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ = readAll(t, dir, 0)
	if len(starts) != len(offsets)+1 {
		t.Fatalf("%d records after truncate+append, want %d", len(starts), len(offsets)+1)
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, l, 20, 0)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d (err %v)", len(segs), err)
	}
	// Flip a payload byte strictly inside a non-last segment.
	victim := segs[1]
	data, err := os.ReadFile(victim.path)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	data[segHeader+frameHeader+2] ^= 0x40
	if err := os.WriteFile(victim.path, data, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
	r, err := OpenReader(dir, 0)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	for {
		_, _, _, err := r.Next()
		if err == nil {
			continue
		}
		if errors.Is(err, io.EOF) {
			t.Fatalf("reader reached EOF through mid-log corruption")
		}
		break // corruption error, as required
	}
}

func TestTruncateFront(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 30, 0)
	segs, _ := listSegments(vfs.OS{}, dir)
	if len(segs) < 4 {
		t.Fatalf("need >= 4 segments, got %d", len(segs))
	}
	cut := segs[2].base // everything below the third segment is dead
	if err := l.TruncateFront(cut); err != nil {
		t.Fatalf("TruncateFront: %v", err)
	}
	after, _ := listSegments(vfs.OS{}, dir)
	if len(after) != len(segs)-2 {
		t.Fatalf("%d segments after TruncateFront, want %d", len(after), len(segs)-2)
	}
	// Reading from cut still works; reading below it is rejected.
	starts, _ := readAll(t, dir, cut)
	var want []int64
	for _, o := range offsets {
		if o >= cut {
			want = append(want, o)
		}
	}
	if !reflect.DeepEqual(starts, want) {
		t.Fatalf("post-truncate read %v, want %v", starts, want)
	}
	if _, err := OpenReader(dir, 0); err == nil {
		t.Fatalf("OpenReader(0) succeeded on a front-truncated log")
	}
	// The active segment survives even when fully covered.
	if err := l.TruncateFront(l.Frontier()); err != nil {
		t.Fatalf("TruncateFront(frontier): %v", err)
	}
	if left, _ := listSegments(vfs.OS{}, dir); len(left) == 0 {
		t.Fatalf("TruncateFront removed the active segment")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// faultFS is a one-fault script over the real filesystem: the n-th
// Write to a log file writes only its first k bytes, then either kills
// the process (err nil: that call and every later Write or Sync fail
// with ErrCrashPoint) or returns err and lets the process live on.
type faultFS struct {
	vfs.OS
	n, k   int
	err    error
	writes int
	dead   bool
}

type faultFile struct {
	vfs.File
	fs *faultFS
}

func (fs *faultFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	if fs.dead {
		return 0, ErrCrashPoint
	}
	if fs.writes++; fs.writes != fs.n {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:fs.k])
	if err != nil {
		return n, err
	}
	if fs.err != nil {
		return n, fs.err
	}
	fs.dead = true
	return n, ErrCrashPoint
}

func (f *faultFile) Sync() error {
	if f.fs.dead {
		return ErrCrashPoint
	}
	return f.File.Sync()
}

// TestFailpointKill: a kill half-way through a frame leaves the log
// dead: the killed append and every later one fail with ErrCrashPoint.
// Open truncates the torn half-frame, reports it in Torn, and every
// acknowledged record survives.
func TestFailpointKill(t *testing.T) {
	dir := t.TempDir()
	rec := EncodeBatch(nil, testBatch(8, 42))
	k := (frameHeader + len(rec)) / 2
	// Write 1 is the new segment's header, writes 2-4 the three records.
	l, err := Open(dir, Options{FS: &faultFS{n: 5, k: k}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 3, 0)
	frontier := l.Frontier()
	if _, _, err := l.Append(rec); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("killed Append: %v, want ErrCrashPoint", err)
	}
	if _, _, err := l.Append([]byte("x")); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("append after kill: %v, want ErrCrashPoint", err)
	}
	_ = l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Torn() != int64(k) {
		t.Fatalf("Torn = %d after a kill %d bytes into a frame", l2.Torn(), k)
	}
	if l2.Frontier() != frontier {
		t.Fatalf("frontier %d after recovery, want %d", l2.Frontier(), frontier)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("post-recovery read %v, want %v", starts, offsets)
	}
}

// TestTearTail: a tear 10 bytes into the fourth record's frame leaves a
// torn tail. Open truncates it and reports it in Torn; the frontier
// falls back to the torn record's start and the first three survive.
func TestTearTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: &faultFS{n: 5, k: 10}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 3, 0)
	torn := l.Frontier()
	if _, _, err := l.Append(EncodeBatch(nil, testBatch(6, 300))); !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("torn Append: %v, want ErrCrashPoint", err)
	}
	_ = l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Torn() != 10 {
		t.Fatalf("Torn = %d after a 10-byte tear", l2.Torn())
	}
	if l2.Frontier() != torn {
		t.Fatalf("frontier %d after tear, want %d", l2.Frontier(), torn)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("post-tear read %v, want %v", starts, offsets)
	}
}

// TestWriteErrorMidFrame: a write that fails part-way through a frame
// (ENOSPC) is not a kill, but the log must not append behind the partial
// frame: the next Open's torn-tail scan would cut the later record off
// with it. Every append after the failure returns it; reopening once
// space is back truncates the partial frame, loses no acknowledged
// record and appends again.
func TestWriteErrorMidFrame(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{FS: &faultFS{n: 4, k: 5, err: syscall.ENOSPC}})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	acked := appendN(t, l, 2, 0)
	frontier := l.Frontier()
	if _, _, err := l.Append(EncodeBatch(nil, testBatch(8, 42))); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append into a full disk: %v, want ENOSPC", err)
	}
	if _, _, err := l.Append(EncodeBatch(nil, testBatch(3, 7))); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Append behind a partial frame: %v, want the sticky ENOSPC", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.Torn() != 5 || l2.Frontier() != frontier {
		t.Fatalf("reopen: torn %d, frontier %d; want 5, %d", l2.Torn(), l2.Frontier(), frontier)
	}
	acked = append(acked, appendN(t, l2, 1, 9)...)
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, acked) {
		t.Fatalf("read %v, want every acknowledged record %v", starts, acked)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncNever} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: pol, SegmentBytes: 256})
		if err != nil {
			t.Fatalf("Open(%d): %v", pol, err)
		}
		offsets := appendN(t, l, 12, 0)
		if err := l.Close(); err != nil {
			t.Fatalf("Close(%d): %v", pol, err)
		}
		starts, _ := readAll(t, dir, 0)
		if !reflect.DeepEqual(starts, offsets) {
			t.Fatalf("policy %d read %v, want %v", pol, starts, offsets)
		}
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if _, _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatalf("oversize append accepted")
	}
}

func TestRuntTailSegmentRecovered(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	offsets := appendN(t, l, 12, 0)
	frontier := l.Frontier()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash between segment create and header write leaves a runt
	// file: fabricate one at the frontier.
	runt := filepath.Join(dir, segmentName(frontier))
	if err := os.WriteFile(runt, []byte("INSW"), 0o644); err != nil {
		t.Fatalf("write runt: %v", err)
	}
	starts, _ := readAll(t, dir, 0)
	if !reflect.DeepEqual(starts, offsets) {
		t.Fatalf("read with runt tail %v, want %v", starts, offsets)
	}
	l, err = Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen with runt tail: %v", err)
	}
	if l.Frontier() != frontier {
		t.Fatalf("frontier %d, want %d", l.Frontier(), frontier)
	}
	appendN(t, l, 1, 555)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	starts, _ = readAll(t, dir, 0)
	if len(starts) != len(offsets)+1 {
		t.Fatalf("%d records after runt recovery, want %d", len(starts), len(offsets)+1)
	}
}

// TestCodecRejectsBadList: a list column the encoder was handed broken —
// offsets that fall back, a value outside int32's non-negative range —
// writes a payload the decoder refuses, never a batch failing Check.
func TestCodecRejectsBadList(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *streams.Col)
	}{
		{"offsets fall back", func(c *streams.Col) { c.Ends[2], c.Ends[3] = c.Ends[3], c.Ends[2] }},
		{"negative value", func(c *streams.Col) { c.L[1] = -7 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := testBatch(8, 100)
			tc.mutate(b.Col("close"))
			if got, err := DecodeBatch(EncodeBatch(nil, b)); err == nil {
				t.Fatalf("decoded a broken list column: %+v", got.Col("close"))
			}
		})
	}
}
