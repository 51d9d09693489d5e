package insight

// Checkpointed recovery for the durable pipeline. A checkpoint is one
// atomically-written file holding what the monitoring process needs to
// resume recognition from a query boundary and cannot recompute from the
// write-ahead log: the boundary cursor, the per-stream consumption
// cursors, the engines' inertia seeds and Fresh dedup sets
// (rtec.EngineSnapshot), the system's latest sensor/crowd readings, the
// crowd's answers as far as recognition and the EM estimator used them
// — the verdicts still in the window and every participant's learned
// reliability. No report: each leaves as its boundary fires, before the
// boundary's checkpoint (see pipeline_durable.go). The engines' working
// memory and the rows consumed but not yet admitted are a function of the logged
// SDE stream, so the checkpoint names where in the log they start — the
// window offset — and the boundaries that admitted rows from there on;
// recovery re-reads the log from that offset and re-admits it, filing
// each boundary's verdicts after its admission (see System.resume).
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
// Layout (format 7). A fixed header — magic, CRC32C over every byte
// after the CRC field, the format byte, the window offset, the
// consumption offset and the boundary cursor as fixed-width
// little-endian integers — so the garbage collector learns a retained
// checkpoint's window offset, the front of the log it needs, without
// decoding anything else; then the sections in the shared codec
// vocabulary (internal/codec): the run's identity (runIdentity), stream
// cursors, the boundaries fired
// since the window offset with their verdicts, the engines' binary
// snapshots (rtec.EngineSnapshot.AppendBinary; on the sharded tier one
// per shard plus the tier state), the latest sensor/crowd readings and
// the estimator (crowd.Estimator.AppendBinary). Readings name their
// sensor or intersection only: the vertex is the city's, looked up on
// restore.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

const (
	ckptMagic  = "INSCKPT1"
	ckptFormat = 7
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
	flow   float64
	t      Time
}

type crowdSnap struct {
	inter     string
	congested bool
	t         Time
}

// boundaryFire is one query boundary the monitoring process fired: its
// query time, the WAL end offset of the last record consumed when it
// fired and the verdicts its crowd rounds fed back, in filing order.
type boundaryFire struct {
	q        Time
	end      int64
	verdicts []crowdVerdict
}

// runIdentity names the run a checkpoint belongs to: the window of
// SDE occurrence times the pipeline was built for and its input. The
// stream cursors count envelopes of one collection of that window, so
// only the run that wrote a checkpoint can resume from it.
type runIdentity struct {
	from, until Time
	// replay is the FNV-1a digest of PipelineOptions.Replay
	// (replayDigest); 0 for a generated stream.
	replay uint64
}

func (r runIdentity) String() string {
	input := "generated stream"
	if r.replay != 0 {
		input = fmt.Sprintf("replay %016x", r.replay)
	}
	return fmt.Sprintf("[%d, %d) from a %s", int64(r.from), int64(r.until), input)
}

// replayDigest is the FNV-1a digest of a recorded stream — every SDE's
// arrival, identity and canonical attributes, in order — or 0 for none
// (a generated stream).
func replayDigest(sdes []dublin.SDE) uint64 {
	if sdes == nil {
		return 0
	}
	h := fnv.New64a()
	var b []byte
	for _, sd := range sdes {
		ev := sd.Event
		b = binary.AppendVarint(b[:0], int64(sd.Arrival))
		b = binary.AppendVarint(b, int64(ev.Time))
		b = append(append(b, ev.Type...), 0)
		b = append(append(b, ev.Key...), 0)
		b = append(append(b, rtec.CanonicalAttrs(ev)...), 0)
		h.Write(b) //lint:allow errdrop a hash's Write never returns an error
	}
	return h.Sum64()
}

// checkpoint is the decoded in-memory form of one checkpoint file.
type checkpoint struct {
	run   runIdentity
	nextQ Time
	// windowOffset is the start of the oldest logged record holding a
	// row the engines' stores or the pending set need; consumedOffset, the
	// consumption offset, is where the records the checkpointed state has
	// not consumed begin.
	windowOffset   int64
	consumedOffset int64
	cursors        []streamCursor // sorted by stream id
	// fires are the boundaries whose records or verdicts are in the
	// window, in firing order: re-admitting at each once the log is
	// re-read to its end offset, and filing its verdicts right after,
	// rebuilds the stores and the pending set row for row.
	fires     []boundaryFire
	engines   []*rtec.EngineSnapshot
	traffic   []trafficSnap // sorted by sensor
	crowd     []crowdSnap   // sorted by intersection
	estimator *crowd.Estimator
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
	dst = codec.AppendVarint(dst, int64(c.run.from))
	dst = codec.AppendVarint(dst, int64(c.run.until))
	dst = codec.AppendUvarint(dst, c.run.replay)
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
		dst = codec.AppendUvarint(dst, uint64(len(f.verdicts)))
		for _, v := range f.verdicts {
			dst = codec.AppendString(dst, v.inter)
			dst = codec.AppendString(dst, v.label)
		}
	}
	// Fixed-width lengths, patched once the section is in place: the
	// snapshots encode straight into the file buffer.
	sized := func(dst []byte, appendTo func([]byte) ([]byte, error)) ([]byte, error) {
		at := len(dst)
		dst, err := appendTo(append(dst, 0, 0, 0, 0))
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
		return dst, nil
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.engines)))
	for _, es := range c.engines {
		var err error
		if dst, err = sized(dst, es.AppendBinary); err != nil {
			return nil, err
		}
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.traffic)))
	for _, ts := range c.traffic {
		dst = codec.AppendString(dst, ts.sensor)
		dst = codec.AppendFloat(dst, ts.flow)
		dst = codec.AppendVarint(dst, int64(ts.t))
	}
	dst = codec.AppendUvarint(dst, uint64(len(c.crowd)))
	for _, cs := range c.crowd {
		dst = codec.AppendString(dst, cs.inter)
		dst = codec.AppendBool(dst, cs.congested)
		dst = codec.AppendVarint(dst, int64(cs.t))
	}
	dst, err := sized(dst, c.estimator.AppendBinary)
	if err != nil {
		return nil, err
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
	c.run = runIdentity{from: Time(d.Varint()), until: Time(d.Varint()), replay: d.Uvarint()}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.cursors = append(c.cursors, streamCursor{
			id:        d.String(),
			consumed:  int64(d.Uvarint()),
			watermark: Time(d.Varint()),
		})
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		f := boundaryFire{q: Time(d.Varint()), end: d.Varint()}
		if f.q >= c.nextQ {
			d.Fail("insight: checkpoint fire q=%d at or past its boundary cursor %d", f.q, c.nextQ)
		}
		for j, m := 0, d.Count(); j < m && d.Err() == nil; j++ {
			v := crowdVerdict{inter: d.String(), label: d.String()}
			if v.label != traffic.Positive && v.label != traffic.Negative {
				d.Fail("insight: checkpoint verdict %q at %s", v.label, v.inter)
			}
			f.verdicts = append(f.verdicts, v)
		}
		c.fires = append(c.fires, f)
	}
	// sized reads a fixed-width length and the section it prefixes.
	sized := func() []byte {
		size := d.Bytes(4)
		if d.Err() != nil {
			return nil
		}
		return d.Bytes(int(binary.LittleEndian.Uint32(size)))
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		blob := sized()
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
		ts := trafficSnap{sensor: d.String(), flow: d.Float(), t: Time(d.Varint())}
		if math.IsNaN(ts.flow) || math.IsInf(ts.flow, 0) {
			d.Fail("insight: checkpoint flow %v at sensor %s", ts.flow, ts.sensor)
		}
		c.traffic = append(c.traffic, ts)
	}
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		c.crowd = append(c.crowd, crowdSnap{inter: d.String(), congested: d.Bool(), t: Time(d.Varint())})
	}
	// The estimator options are those every System runs with.
	c.estimator = crowd.NewEstimator(crowd.EstimatorOptions{})
	if blob := sized(); d.Err() == nil {
		if err := c.estimator.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("insight: checkpoint estimator: %w", err)
		}
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
// checkpoint that decodes cleanly and names only sensors and
// intersections of s's city, recording in info what it loaded and how
// many corrupt files it had to skip. A nil checkpoint with nil error
// means a fresh start. A file that is intact but of a format this build
// cannot read is an error, not a skip: falling back past it would
// silently resume from older state — or, with nothing older, from a log
// whose front the newer checkpoints already truncated.
func (s *System) loadLatestCheckpoint(fsys vfs.FS, dir string, info *RecoveryInfo) (*checkpoint, error) {
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
		if err == nil {
			err = s.checkCity(c)
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

// checkCity refuses a checkpoint naming a sensor or intersection s's
// city does not have: its reading would reach the traffic model with no
// graph vertex, its verdict the engines with no position.
func (s *System) checkCity(c *checkpoint) error {
	for _, ts := range c.traffic {
		if _, ok := s.sensorVertex[ts.sensor]; !ok {
			return fmt.Errorf("insight: checkpoint reading of unknown sensor %q", ts.sensor)
		}
	}
	for _, cs := range c.crowd {
		if _, ok := s.interVertex[cs.inter]; !ok {
			return fmt.Errorf("insight: checkpoint crowd reading of unknown intersection %q", cs.inter)
		}
	}
	for _, f := range c.fires {
		for _, v := range f.verdicts {
			if _, ok := s.registry.Lookup(v.inter); !ok {
				return fmt.Errorf("insight: checkpoint verdict of unknown intersection %q", v.inter)
			}
		}
	}
	return nil
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
