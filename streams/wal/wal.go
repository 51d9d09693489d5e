// Package wal is the durable SDE log of the streams backbone: a
// segmented, append-only file format carrying length- and
// CRC32C-framed record payloads (columnar transport batches, encoded
// by codec.go).
//
// Layout. A log directory holds segment files named
// wal-<base>.seg, where <base> is the logical offset of the segment's
// first record. Logical offsets count frame bytes across the whole
// log — segment headers excluded — so a record's address is stable
// under segment rotation and front truncation. Each segment starts
// with a 16-byte header (magic + base offset) followed by frames:
//
//	[4B length LE][4B CRC32C(payload) LE][payload]
//
// Torn tails. A crash mid-append leaves a partial frame at the end of
// the last segment. Open detects it (short frame, impossible length,
// or CRC mismatch), truncates the file back to the last valid frame
// and reports the discarded bytes — the record was never acknowledged,
// so the writer re-appends it after recovery. The same scan in the
// Reader lets replay stop cleanly at a torn tail instead of erroring;
// corruption strictly inside the log (before another valid segment)
// is not recoverable and is surfaced as an error with its offset.
//
// Failed writes. A frame the log could not write or fsync may sit
// partly on disk, and a frame appended behind it would be cut off with it
// by the next Open's torn-tail scan. So the first write-path error is
// sticky: every later Append returns it, and reopening the log truncates
// the partial frame.
//
// Storage calls go through an internal/vfs FS (Options.FS), the seam
// tests use to tear, fail or kill a write at a scripted call.
//
// Durability policy. SyncAlways (the default) fsyncs after every
// append, which is what makes "consumed implies durable" hold for the
// pipeline's checkpoint offsets; SyncNever leaves flushing to the OS,
// trading the crash-equivalence guarantee for throughput, and is meant
// for benchmarks.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/insight-dublin/insight/internal/vfs"
)

// SyncPolicy selects when the log fsyncs appended frames.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append (default): an acknowledged
	// record is durable.
	SyncAlways SyncPolicy = iota
	// SyncNever never fsyncs explicitly.
	SyncNever
)

// ErrCrashPoint marks a simulated kill: a test filesystem returns it
// from every call once its scripted death has fired, and package
// insight's checkpoint writer returns it when DurableOptions'
// CheckpointFailpoint asks for one. Callers match it with errors.Is to
// tell a simulated kill from a real I/O failure.
var ErrCrashPoint = errors.New("wal: injected crash point")

const (
	segMagic    = "INSWAL1\n"
	segHeader   = 16
	frameHeader = 8
	// MaxRecord bounds a record payload; frame lengths beyond it are
	// treated as corruption, so a flipped length byte cannot demand a
	// multi-gigabyte read.
	MaxRecord = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// SegmentBytes rotates to a new segment once the active one holds
	// at least this many frame bytes. Default 1 MiB.
	SegmentBytes int64
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// FS carries the Log's file calls; nil means the real filesystem.
	// Creating the directory and OpenReader use the real filesystem.
	FS vfs.FS
}

func (o Options) normalized() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	o.FS = vfs.Or(o.FS)
	return o
}

// Log is a single-writer append handle over a log directory: the
// pipeline serializes appends through one process by design
// (consumption order must equal append order). A mutex still guards
// the handle so maintenance calls from other goroutines — the
// checkpoint coordinator's TruncateFront and Frontier reads — are safe
// against a concurrent Append.
type Log struct {
	dir  string
	opts Options

	// syncs counts the write path's fsyncs since Open; atomic, so Syncs
	// never waits for mu.
	syncs atomic.Int64

	mu     sync.Mutex
	active vfs.File // current segment, opened for append
	base   int64    // logical offset of active's first record
	size   int64    // frame bytes in active
	torn   int64    // bytes discarded from the tail at Open
	err    error    // the first write-path failure; sticky
}

type segmentInfo struct {
	path   string
	base   int64
	frames int64 // frame bytes (file size minus header)
}

func segmentName(base int64) string {
	return fmt.Sprintf("wal-%020d.seg", base)
}

// listSegments returns the log's segments sorted by base offset,
// validating names against headers and base contiguity.
func listSegments(fsys vfs.FS, dir string) ([]segmentInfo, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, ent := range ents {
		name := ent.Name()
		var base int64
		if _, err := fmt.Sscanf(name, "wal-%d.seg", &base); err != nil {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return nil, err
		}
		if info.Size() < segHeader {
			// A crash between create and header write leaves a runt
			// segment; it carries no records.
			segs = append(segs, segmentInfo{path: filepath.Join(dir, name), base: base, frames: 0})
			continue
		}
		segs = append(segs, segmentInfo{
			path:   filepath.Join(dir, name),
			base:   base,
			frames: info.Size() - segHeader,
		})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := 1; i < len(segs); i++ {
		if want := segs[i-1].base + segs[i-1].frames; segs[i].base != want {
			return nil, fmt.Errorf("wal: segment %s starts at offset %d, want %d (gap or overlap)",
				filepath.Base(segs[i].path), segs[i].base, want)
		}
	}
	return segs, nil
}

// checkHeader validates a segment file's magic and base offset; data
// holds at least the header.
func checkHeader(hdr []byte, base int64) error {
	if string(hdr[:8]) != segMagic {
		return fmt.Errorf("wal: bad segment magic %q", hdr[:8])
	}
	if got := int64(leUint64(hdr[8:])); got != base {
		return fmt.Errorf("wal: segment header base %d does not match name %d", got, base)
	}
	return nil
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// scanFrames walks the frames of one segment's data and returns the
// number of leading bytes forming valid frames.
func scanFrames(data []byte) int64 {
	off := int64(0)
	for {
		rest := data[off:]
		if len(rest) < frameHeader {
			return off
		}
		n := int64(leUint32(rest))
		if n > MaxRecord || frameHeader+n > int64(len(rest)) {
			return off
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != leUint32(rest[4:]) {
			return off
		}
		off += frameHeader + n
	}
}

// Open opens (creating if needed) the log in dir, truncating any torn
// tail left by a crash. The discarded byte count is available via
// Torn.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.normalized()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.openSegmentLocked(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	last := segs[len(segs)-1]
	if last.frames == 0 && len(segs) > 1 && segs[len(segs)-2].frames == 0 {
		return nil, fmt.Errorf("wal: multiple empty tail segments in %s", dir)
	}
	data, err := opts.FS.ReadFile(last.path)
	if err != nil {
		return nil, err
	}
	f, err := opts.FS.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if len(data) < segHeader {
		// Runt segment: rewrite the header in place.
		if err := f.Truncate(0); err != nil {
			return nil, closeJoin(f, err)
		}
		if err := writeHeader(f, last.base); err != nil {
			return nil, closeJoin(f, err)
		}
		l.active, l.base, l.size = f, last.base, 0
		l.torn = int64(len(data)) // partial header counts as discarded tail
		return l, nil
	}
	if err := checkHeader(data, last.base); err != nil {
		return nil, closeJoin(f, err)
	}
	valid := scanFrames(data[segHeader:])
	if torn := int64(len(data)) - segHeader - valid; torn > 0 {
		if err := f.Truncate(segHeader + valid); err != nil {
			return nil, closeJoin(f, err)
		}
		if err := f.Sync(); err != nil {
			return nil, closeJoin(f, err)
		}
		l.torn = torn
	}
	l.active, l.base, l.size = f, last.base, valid
	return l, nil
}

func closeJoin(f vfs.File, err error) error {
	return errors.Join(err, f.Close())
}

// writeHeader writes and syncs a segment header into the empty file f.
func writeHeader(f vfs.File, base int64) error {
	var hdr [segHeader]byte
	copy(hdr[:8], segMagic)
	for i := 0; i < 8; i++ {
		hdr[8+i] = byte(uint64(base) >> (8 * i))
	}
	if _, err := f.Write(hdr[:]); err != nil {
		return err
	}
	return f.Sync()
}

// openSegmentLocked creates and activates the segment starting at base.
func (l *Log) openSegmentLocked(base int64) error {
	path := filepath.Join(l.dir, segmentName(base))
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := writeHeader(f, base); err != nil {
		return closeJoin(f, err)
	}
	l.active, l.base, l.size = f, base, 0
	l.countSync() // the header's
	return nil
}

// Frontier returns the logical offset the next record will start at —
// equivalently, the end offset of the last durable record.
func (l *Log) Frontier() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + l.size
}

// Torn returns the number of torn-tail bytes Open discarded.
func (l *Log) Torn() int64 { return l.torn }

// Syncs returns the number of fsyncs the write path — appends, segment
// rolls and Sync — has issued since Open. It takes no lock, so a reader
// never waits behind an append's fsync.
func (l *Log) Syncs() int64 { return l.syncs.Load() }

// syncLocked fsyncs the active segment and counts it.
func (l *Log) syncLocked() error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	l.countSync()
	return nil
}

// countSync counts one write-path fsync.
func (l *Log) countSync() { l.syncs.Add(1) }

// Append frames payload, writes it to the active segment and returns
// the record's logical [start, end) offsets. With SyncAlways the
// record is durable when Append returns. After a failed write or sync
// every Append returns that failure (see the package comment).
func (l *Log) Append(payload []byte) (start, end int64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, 0, l.err
	}
	if len(payload) > MaxRecord {
		return 0, 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecord %d", len(payload), MaxRecord)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, 0, l.failLocked(err)
		}
	}
	frame := make([]byte, frameHeader+len(payload))
	putU32(frame, uint32(len(payload)))
	putU32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeader:], payload)
	start = l.base + l.size
	if _, err := l.active.Write(frame); err != nil {
		return 0, 0, l.failLocked(err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, 0, l.failLocked(err)
		}
	}
	l.size += int64(len(frame))
	return start, start + int64(len(frame)), nil
}

// failLocked records err as the log's sticky failure and returns it.
func (l *Log) failLocked(err error) error {
	l.err = fmt.Errorf("wal: append failed, reopen the log to continue: %w", err)
	return l.err
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if l.opts.Sync != SyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.base + l.size)
}

// Close syncs (unless SyncNever) and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	var err error
	if l.err == nil && l.opts.Sync != SyncNever {
		err = l.active.Sync()
	}
	err = errors.Join(err, l.active.Close())
	l.active = nil
	return err
}

// TruncateFront removes whole segments that lie entirely at or below
// offset — the checkpoint GC hook: once every retained checkpoint
// replays from at or past offset, the prefix below it is dead weight.
// The active segment is never removed.
func (l *Log) TruncateFront(offset int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, err := listSegments(l.opts.FS, l.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if seg.base == l.base {
			break // never the active segment
		}
		if seg.base+seg.frames > offset {
			break
		}
		if err := l.opts.FS.Remove(seg.path); err != nil {
			return err
		}
	}
	return nil
}

// Reader iterates the records of a log directory from a logical
// offset. It tolerates a torn tail (iteration ends cleanly, with the
// discarded byte count in Torn) but reports mid-log corruption as an
// error carrying the offset.
type Reader struct {
	segs []segmentInfo
	si   int
	data []byte // current segment's frame bytes
	off  int64  // offset within data
	base int64  // logical offset of data[0]
	torn int64
	err  error
	done bool
}

// OpenReader positions a reader at logical offset from. Records
// starting at or after from are returned in order; from must lie on a
// record boundary (or at the log's start/frontier).
func OpenReader(dir string, from int64) (*Reader, error) {
	segs, err := listSegments(vfs.OS{}, dir)
	if err != nil {
		return nil, err
	}
	r := &Reader{segs: segs, si: -1}
	if len(segs) == 0 {
		r.done = true
		return r, nil
	}
	if from < segs[0].base {
		return nil, fmt.Errorf("wal: offset %d precedes the log's first retained segment (base %d)", from, segs[0].base)
	}
	// Find the segment containing from.
	si := sort.Search(len(segs), func(i int) bool { return segs[i].base+segs[i].frames > from })
	if si == len(segs) {
		if last := segs[len(segs)-1]; from == last.base+last.frames {
			r.done = true // positioned exactly at the frontier
			return r, nil
		}
		return nil, fmt.Errorf("wal: offset %d beyond the log frontier", from)
	}
	if err := r.load(si); err != nil {
		return nil, err
	}
	r.off = from - r.base
	return r, nil
}

// load reads segment si's frame bytes into memory.
func (r *Reader) load(si int) error {
	seg := r.segs[si]
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return err
	}
	if len(data) < segHeader {
		// Runt tail segment: no header, no records.
		r.si, r.data, r.base, r.off = si, nil, seg.base, 0
		r.torn += int64(len(data))
		return nil
	}
	if err := checkHeader(data, seg.base); err != nil {
		return err
	}
	r.si, r.data, r.base, r.off = si, data[segHeader:], seg.base, 0
	return nil
}

// Torn returns the torn-tail bytes skipped so far.
func (r *Reader) Torn() int64 { return r.torn }

// Next returns the next record's payload and logical [start, end)
// offsets. It returns io.EOF at the end of the log (including after a
// discarded torn tail); any other error means unrecoverable
// corruption. The payload aliases the reader's segment buffer and is
// valid until the next Next call crosses a segment boundary.
func (r *Reader) Next() (payload []byte, start, end int64, err error) {
	if r.err != nil {
		return nil, 0, 0, r.err
	}
	if r.done {
		return nil, 0, 0, io.EOF
	}
	for {
		rest := r.data[r.off:]
		if len(rest) >= frameHeader {
			n := int64(leUint32(rest))
			if n <= MaxRecord && frameHeader+n <= int64(len(rest)) {
				p := rest[frameHeader : frameHeader+n]
				if crc32.Checksum(p, castagnoli) == leUint32(rest[4:]) {
					start = r.base + r.off
					r.off += frameHeader + n
					return p, start, start + frameHeader + n, nil
				}
			}
		}
		// Invalid frame: a torn tail if nothing follows, corruption
		// otherwise.
		if r.si == len(r.segs)-1 {
			if tail := int64(len(r.data)) - r.off; tail > 0 {
				r.torn += tail
			}
			r.done = true
			return nil, 0, 0, io.EOF
		}
		if int64(len(r.data))-r.off > 0 {
			r.err = fmt.Errorf("wal: corrupt frame at offset %d", r.base+r.off)
			return nil, 0, 0, r.err
		}
		if err := r.load(r.si + 1); err != nil {
			r.err = err
			return nil, 0, 0, err
		}
		if r.data == nil { // runt tail segment
			r.done = true
			return nil, 0, 0, io.EOF
		}
	}
}
