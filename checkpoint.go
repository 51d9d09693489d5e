package insight

// Checkpointed recovery for the durable pipeline. A checkpoint is one
// atomically-written file capturing everything the monitoring process
// needs to resume recognition from a query boundary: the boundary
// cursor, the per-stream consumption cursors, the WAL offset from
// which consumption must be replayed, the engines' restorable state
// (rtec.EngineSnapshot), the rows consumed but not yet admitted past a
// boundary, the system's latest sensor/crowd readings, and the reports
// that were fired but not yet acknowledged by the operator sink.
//
// Atomicity. The file is written to a .tmp sibling, fsynced, renamed
// into place and the directory fsynced — a crash leaves either the
// previous checkpoint set or the new one, never a half-visible file
// under the final name. Contents are guarded by a CRC32C over the
// body, so a checkpoint corrupted after the rename (torn sector, bit
// rot, or the chaos harness's injected corruption) is detected at load
// time and recovery falls back to the previous retained checkpoint.
//
// Layout (format 3). A fixed header — magic, CRC32C over every byte
// after the CRC field, the format byte, the WAL replay offset and the
// boundary cursor as fixed-width little-endian integers — so the
// garbage collector learns a retained checkpoint's replay offset
// without decoding any engine state, followed by the sections in the
// shared codec vocabulary (internal/codec): stream cursors, pending
// rows as WAL batch payloads, the engines' columnar binary snapshots
// (rtec.EngineSnapshot.AppendBinary; on the sharded tier one per shard
// plus the tier state), the latest sensor/crowd readings and the
// unacked reports (a few KB of JSON each).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams/wal"
)

const (
	ckptMagic  = "INSCKPT1"
	ckptFormat = 3
	// Fixed header offsets: magic, CRC32C of everything after it, format
	// byte, WAL replay offset, boundary cursor.
	ckptCRCAt    = len(ckptMagic)
	ckptFormatAt = ckptCRCAt + 4
	ckptOffsetAt = ckptFormatAt + 1
	ckptNextQAt  = ckptOffsetAt + 8
	ckptHeader   = ckptNextQAt + 8
	// ckptKeep is how many recent checkpoints GC retains. Two, so a
	// checkpoint corrupted after its rename always leaves a valid
	// predecessor to fall back to.
	ckptKeep = 2
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// CheckpointCrash selects an injected failure mode for one checkpoint
// write — the chaos harness's failpoints for the checkpoint path,
// mirroring wal.Failpoint for the log path. Every mode ends the run
// with wal.ErrCrashPoint (the simulated kill).
type CheckpointCrash int

const (
	// CrashNone writes the checkpoint normally.
	CrashNone CheckpointCrash = iota
	// CrashTornCheckpoint dies halfway through the temp file: the torn
	// .tmp artifact is ignored by recovery, which resumes from the
	// previous checkpoint.
	CrashTornCheckpoint
	// CrashAfterCheckpoint dies right after the atomic rename: the
	// checkpoint is durable but the epoch still ends, so recovery must
	// resume from it with an (almost) empty replay.
	CrashAfterCheckpoint
	// CrashCorruptCheckpoint completes the write, then flips one bit in
	// the renamed file before dying: the CRC check must reject it and
	// recovery must fall back to the previous checkpoint.
	CrashCorruptCheckpoint
)

// streamCursor is one input stream's consumption state at a
// checkpoint: how many batch envelopes of the stream have been
// consumed since the window origin (the resume skip count) and the
// stream's arrival watermark.
type streamCursor struct {
	id        string
	consumed  int64
	watermark Time
}

// trafficSnap and crowdSnap persist the System's latest-reading maps
// feeding the GP sparsity service.
type trafficSnap struct {
	sensor string
	vertex int
	flow   float64
	t      Time
}

type crowdSnap struct {
	inter     string
	vertex    int
	congested bool
	t         Time
}

// checkpoint is the decoded in-memory form of one checkpoint file.
type checkpoint struct {
	nextQ     Time
	walOffset int64
	cursors   []streamCursor // sorted by stream id
	// pendingBatches are the consumed-but-unadmitted rows, re-encoded
	// as WAL batch payloads in exact pending order (consecutive rows of
	// one retained batch form one mini-batch).
	pendingBatches [][]byte
	engines        []*rtec.EngineSnapshot
	traffic        []trafficSnap // sorted by sensor
	crowd          []crowdSnap   // sorted by intersection
	reports        [][]byte      // JSON of fired-but-unacked reports, ascending Q
}

// errUnsupportedFormat marks a checkpoint whose envelope is intact
// (magic and CRC verify) but whose format this build cannot decode — an
// operator problem to surface, not corruption to skip past.
var errUnsupportedFormat = errors.New("unsupported checkpoint format")

// encode appends the checkpoint file bytes to dst (callers pass a
// reused buffer): header, sections, then the CRC patched in.
func (c *checkpoint) encode(dst []byte) ([]byte, error) {
	dst = append(dst, ckptMagic...)
	dst = append(dst, 0, 0, 0, 0) // CRC, patched below
	dst = append(dst, ckptFormat)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.walOffset))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.nextQ))
	dst = codec.AppendUvarint(dst, uint64(len(c.cursors)))
	for _, cur := range c.cursors {
		dst = codec.AppendString(dst, cur.id)
		dst = codec.AppendUvarint(dst, uint64(cur.consumed))
		dst = codec.AppendVarint(dst, int64(cur.watermark))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.pendingBatches)))
	for _, pb := range c.pendingBatches {
		dst = codec.AppendUvarint(dst, uint64(len(pb)))
		dst = append(dst, pb...)
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.engines)))
	for _, es := range c.engines {
		// Fixed-width length, patched once the snapshot is in place: the
		// snapshot encodes straight into the file buffer.
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		var err error
		if dst, err = es.AppendBinary(dst); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.traffic)))
	for _, ts := range c.traffic {
		dst = codec.AppendString(dst, ts.sensor)
		dst = codec.AppendVarint(dst, int64(ts.vertex))
		dst = codec.AppendFloat(dst, ts.flow)
		dst = codec.AppendVarint(dst, int64(ts.t))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.crowd)))
	for _, cs := range c.crowd {
		dst = codec.AppendString(dst, cs.inter)
		dst = codec.AppendVarint(dst, int64(cs.vertex))
		dst = codec.AppendBool(dst, cs.congested)
		dst = codec.AppendVarint(dst, int64(cs.t))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.reports)))
	for _, rb := range c.reports {
		dst = codec.AppendUvarint(dst, uint64(len(rb)))
		dst = append(dst, rb...)
	}
	binary.LittleEndian.PutUint32(dst[ckptCRCAt:], crc32.Checksum(dst[ckptFormatAt:], ckptCRC))
	return dst, nil
}

// checkpointOffset verifies a checkpoint file's envelope — magic, CRC,
// format — and returns the WAL replay offset from its fixed header,
// touching none of the sections. A CRC-valid file of another format
// yields errUnsupportedFormat.
func checkpointOffset(data []byte) (int64, error) {
	if len(data) < ckptFormatAt+1 {
		return 0, fmt.Errorf("insight: checkpoint of %d bytes is shorter than its header", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, fmt.Errorf("insight: bad checkpoint magic %q", data[:len(ckptMagic)])
	}
	want := binary.LittleEndian.Uint32(data[ckptCRCAt:])
	if got := crc32.Checksum(data[ckptFormatAt:], ckptCRC); got != want {
		return 0, fmt.Errorf("insight: checkpoint CRC mismatch (got %08x, want %08x)", got, want)
	}
	if f := data[ckptFormatAt]; f != ckptFormat {
		return 0, fmt.Errorf("insight: %w %d (this build reads format %d)", errUnsupportedFormat, f, ckptFormat)
	}
	if len(data) < ckptHeader {
		return 0, fmt.Errorf("insight: checkpoint of %d bytes is shorter than its header", len(data))
	}
	return int64(binary.LittleEndian.Uint64(data[ckptOffsetAt:])), nil
}

// decodeCheckpoint validates and parses checkpoint file bytes.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	off, err := checkpointOffset(data)
	if err != nil {
		return nil, err
	}
	c := &checkpoint{
		walOffset: off,
		nextQ:     Time(binary.LittleEndian.Uint64(data[ckptNextQAt:])),
	}
	d := codec.NewDecoder(data[ckptHeader:])
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.cursors = append(c.cursors, streamCursor{
			id:        d.String(),
			consumed:  int64(d.Uvarint()),
			watermark: Time(d.Varint()),
		})
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.pendingBatches = append(c.pendingBatches, d.Bytes(d.Count()))
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		size := d.Bytes(4)
		if d.Err() != nil {
			break
		}
		blob := d.Bytes(int(binary.LittleEndian.Uint32(size)))
		if d.Err() != nil {
			break
		}
		es := &rtec.EngineSnapshot{}
		if err := es.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("insight: checkpoint engine snapshot %d: %w", i, err)
		}
		c.engines = append(c.engines, es)
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.traffic = append(c.traffic, trafficSnap{
			sensor: d.String(),
			vertex: int(d.Varint()),
			flow:   d.Float(),
			t:      Time(d.Varint()),
		})
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.crowd = append(c.crowd, crowdSnap{
			inter:     d.String(),
			vertex:    int(d.Varint()),
			congested: d.Bool(),
			t:         Time(d.Varint()),
		})
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.reports = append(c.reports, d.Bytes(d.Count()))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("insight: %d trailing bytes after checkpoint body", d.Len())
	}
	return c, nil
}

// checkpointName renders the file name of the checkpoint taken with
// boundary cursor q. Names sort lexicographically in q order.
func checkpointName(q Time) string {
	return fmt.Sprintf("ckpt-%016d.ck", int64(q))
}

// parseCheckpointName extracts q from a checkpoint file name.
func parseCheckpointName(name string) (Time, bool) {
	var q int64
	if !strings.HasPrefix(name, "ckpt-") || !strings.HasSuffix(name, ".ck") {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "ckpt-%d.ck", &q); err != nil {
		return 0, false
	}
	return Time(q), true
}

// writeCheckpointFile atomically persists encoded checkpoint bytes for
// boundary cursor q under dir: temp file, fsync, rename, directory
// fsync. A non-CrashNone mode injects the corresponding failure and
// returns wal.ErrCrashPoint.
func writeCheckpointFile(dir string, q Time, data []byte, crash CheckpointCrash) error {
	path := filepath.Join(dir, checkpointName(q))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if crash == CrashTornCheckpoint {
		if _, err := f.Write(data[:len(data)/2]); err != nil {
			return closeDrop(f, err)
		}
		if err := f.Sync(); err != nil {
			return closeDrop(f, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		return fmt.Errorf("insight: killed mid-checkpoint %s (torn temp file): %w", checkpointName(q), wal.ErrCrashPoint)
	}
	if _, err := f.Write(data); err != nil {
		return closeDrop(f, err)
	}
	if err := f.Sync(); err != nil {
		return closeDrop(f, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	switch crash {
	case CrashAfterCheckpoint:
		return fmt.Errorf("insight: killed after checkpoint %s became durable: %w", checkpointName(q), wal.ErrCrashPoint)
	case CrashCorruptCheckpoint:
		if err := flipBit(path); err != nil {
			return err
		}
		return fmt.Errorf("insight: killed after corrupting checkpoint %s: %w", checkpointName(q), wal.ErrCrashPoint)
	}
	return nil
}

// closeDrop closes f after a failed write, preferring the write error.
func closeDrop(f *os.File, err error) error {
	if cerr := f.Close(); cerr != nil && err == nil {
		return cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return closeDrop(d, err)
	}
	return d.Close()
}

// flipBit corrupts one byte in the middle of the file at path — the
// chaos harness's post-rename corruption injection.
func flipBit(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return nil
	}
	data[len(data)/2] ^= 0x40
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return closeDrop(f, err)
	}
	if err := f.Sync(); err != nil {
		return closeDrop(f, err)
	}
	return f.Close()
}

// listCheckpoints returns the checkpoint files under dir, newest (by
// boundary cursor) first.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if _, ok := parseCheckpointName(ent.Name()); ok {
			names = append(names, ent.Name())
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	return names, nil
}

// loadLatestCheckpoint scans dir newest-first and returns the first
// checkpoint that decodes cleanly, recording in info what it loaded and
// how many corrupt files it had to skip. A nil checkpoint with nil
// error means a fresh start. A file that is intact but of a format this
// build cannot read is an error, not a skip: falling back past it would
// silently resume from older state — or, with nothing older, from a log
// whose front the newer checkpoints already truncated.
func loadLatestCheckpoint(dir string, info *RecoveryInfo) (*checkpoint, error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		c, err := decodeCheckpoint(data)
		if errors.Is(err, errUnsupportedFormat) {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err != nil {
			info.CorruptCheckpoints++
			continue
		}
		info.Resumed = true
		info.CheckpointQ, _ = parseCheckpointName(name)
		info.CheckpointBytes = int64(len(data))
		return c, nil
	}
	return nil, nil
}

// gcCheckpoints removes all but the ckptKeep newest checkpoints (and
// any leftover temp files), then returns the WAL offset of the oldest
// retained checkpoint — the front-truncation point for the log, read
// from the file's fixed header once its CRC verifies; engine state is
// never decoded here. A negative return means no safe truncation point
// is known: the log is never truncated past an unreadable retained
// checkpoint.
func gcCheckpoints(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return -1, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".ck.tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return -1, err
			}
			continue
		}
		if _, ok := parseCheckpointName(name); ok {
			names = append(names, name)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names[min(len(names), ckptKeep):] {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return -1, err
		}
	}
	if len(names) == 0 {
		return -1, nil
	}
	oldest := names[min(len(names), ckptKeep)-1]
	data, err := os.ReadFile(filepath.Join(dir, oldest))
	if err != nil {
		return -1, err
	}
	off, err := checkpointOffset(data)
	if err != nil {
		return -1, nil // unreadable retained checkpoint: no safe truncation
	}
	return off, nil
}
