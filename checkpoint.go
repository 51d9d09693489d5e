package insight

// Checkpointed recovery for the durable pipeline. A checkpoint is one
// atomically-written file holding what the monitoring process needs to
// resume recognition from a query boundary and cannot recompute from the
// write-ahead log: the boundary cursor, the per-stream consumption
// cursors, the engines' inertia seeds and Fresh dedup sets
// (rtec.EngineSnapshot), the system's latest sensor/crowd readings and
// the reports that were fired but not yet acknowledged by the operator
// sink. The engines' working memory and the rows consumed but not yet
// admitted are a function of the logged SDE stream, so the checkpoint
// names where in the log they start — the window offset — and the
// boundaries that admitted rows from there on; recovery re-reads the
// log from that offset and re-admits it (see BuildDurablePipeline).
//
// Atomicity. The file is written to a .tmp sibling, fsynced, renamed
// into place and the directory fsynced — a crash leaves either the
// previous checkpoint set or the new one, never a half-visible file
// under the final name. Contents are guarded by a CRC32C over the
// body, so a checkpoint corrupted after the rename (torn sector, bit
// rot) is detected at load time and recovery falls back to the previous
// retained checkpoint. Every file call goes through the internal/vfs
// seam, where tests script their storage faults.
//
// Layout (format 4). A fixed header — magic, CRC32C over every byte
// after the CRC field, the format byte, the window offset, the
// consumption offset and the boundary cursor as fixed-width
// little-endian integers — so the garbage collector learns a retained
// checkpoint's window offset, the front of the log it needs, without
// decoding anything else; then the sections in the shared codec
// vocabulary (internal/codec): stream cursors, the boundaries fired
// since the window offset, the engines' binary snapshots
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
	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/rtec"
)

const (
	ckptMagic  = "INSCKPT1"
	ckptFormat = 4
	// Fixed header offsets: magic, CRC32C of everything after it, format
	// byte, window offset, consumption offset, boundary cursor.
	ckptCRCAt      = len(ckptMagic)
	ckptFormatAt   = ckptCRCAt + 4
	ckptWindowAt   = ckptFormatAt + 1
	ckptConsumedAt = ckptWindowAt + 8
	ckptNextQAt    = ckptConsumedAt + 8
	ckptHeader     = ckptNextQAt + 8
	// ckptKeep is how many recent checkpoints GC retains. Two, so a
	// checkpoint corrupted after its rename always leaves a valid
	// predecessor to fall back to — or, before a second exists, the
	// whole log.
	ckptKeep = 2
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// CheckpointCrash is what DurableOptions.CheckpointFailpoint asks of
// one live checkpoint write. It exists for one caller: cmd/e2ebench
// kills its durable run after a checkpoint to time recovery
// (insight.recover_ms). Tests script storage faults through the
// internal/vfs seam instead.
type CheckpointCrash int

const (
	// CrashNone writes the checkpoint normally.
	CrashNone CheckpointCrash = iota
	// CrashAfterCheckpoint ends the run with wal.ErrCrashPoint right
	// after the checkpoint became durable, before it is garbage
	// collected against.
	CrashAfterCheckpoint
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

// boundaryFire is one query boundary the monitoring process fired: its
// query time and the WAL end offset of the last record consumed when it
// fired.
type boundaryFire struct {
	q   Time
	end int64
}

// checkpoint is the decoded in-memory form of one checkpoint file.
type checkpoint struct {
	nextQ Time
	// windowOffset is the start of the oldest logged record holding a
	// row the engines' stores or the pending set need; consumedOffset, the
	// consumption offset, is where the records the checkpointed state has
	// not consumed begin.
	windowOffset   int64
	consumedOffset int64
	cursors        []streamCursor // sorted by stream id
	// fires are the boundaries that fired after windowOffset, in firing
	// order: re-admitting at each once the log is re-read to its end
	// offset rebuilds the stores and the pending set row for row.
	fires   []boundaryFire
	engines []*rtec.EngineSnapshot
	traffic []trafficSnap // sorted by sensor
	crowd   []crowdSnap   // sorted by intersection
	reports [][]byte      // JSON of fired-but-unacked reports, ascending Q
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
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.windowOffset))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.consumedOffset))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.nextQ))
	dst = codec.AppendUvarint(dst, uint64(len(c.cursors)))
	for _, cur := range c.cursors {
		dst = codec.AppendString(dst, cur.id)
		dst = codec.AppendUvarint(dst, uint64(cur.consumed))
		dst = codec.AppendVarint(dst, int64(cur.watermark))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.fires)))
	for _, f := range c.fires {
		dst = codec.AppendVarint(dst, int64(f.q))
		dst = codec.AppendVarint(dst, f.end)
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
// format — and returns the window offset from its fixed header, touching
// none of the sections. A CRC-valid file of another format
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
	return int64(binary.LittleEndian.Uint64(data[ckptWindowAt:])), nil
}

// decodeCheckpoint validates and parses checkpoint file bytes.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	off, err := checkpointOffset(data)
	if err != nil {
		return nil, err
	}
	c := &checkpoint{
		windowOffset:   off,
		consumedOffset: int64(binary.LittleEndian.Uint64(data[ckptConsumedAt:])),
		nextQ:          Time(binary.LittleEndian.Uint64(data[ckptNextQAt:])),
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
		c.fires = append(c.fires, boundaryFire{q: Time(d.Varint()), end: d.Varint()})
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
// fsync.
func writeCheckpointFile(fsys vfs.FS, dir string, q Time, data []byte) error {
	path := filepath.Join(dir, checkpointName(q))
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// listCheckpoints returns the checkpoint files under dir, newest (by
// boundary cursor) first.
func listCheckpoints(fsys vfs.FS, dir string) ([]string, error) {
	ents, err := fsys.ReadDir(dir)
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
func loadLatestCheckpoint(fsys vfs.FS, dir string, info *RecoveryInfo) (*checkpoint, error) {
	names, err := listCheckpoints(fsys, dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for _, name := range names {
		data, err := fsys.ReadFile(filepath.Join(dir, name))
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
// any leftover temp files), then returns the window offset of the oldest
// retained checkpoint — the front-truncation point for the log, read
// from the file's fixed header once its CRC verifies: recovery from
// either retained checkpoint re-reads the log from its window offset on.
// Nothing else is decoded here. A negative return means no safe
// truncation point is known: the log is never truncated past an
// unreadable retained checkpoint, nor while fewer than ckptKeep
// checkpoints exist — a lone checkpoint has no predecessor, and a
// recovery that crosses no boundary rewrites it in place, so a cold
// start from offset 0 is its fallback.
func gcCheckpoints(fsys vfs.FS, dir string) (int64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return -1, err
	}
	var names []string
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".ck.tmp") {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
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
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return -1, err
		}
	}
	if len(names) < ckptKeep {
		return -1, nil
	}
	oldest := names[ckptKeep-1]
	data, err := fsys.ReadFile(filepath.Join(dir, oldest))
	if err != nil {
		return -1, err
	}
	off, err := checkpointOffset(data)
	if err != nil {
		return -1, nil // unreadable retained checkpoint: no safe truncation
	}
	return off, nil
}
