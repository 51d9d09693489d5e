package insight

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/internal/vfs"
)

// productCheckpoint runs the durable pipeline in the product
// configuration (2 shards, column store, a checkpoint per boundary)
// over one test-scale hour, with the given number of participants, and
// returns the newest checkpoint file it left behind.
func productCheckpoint(t testing.TB, city *dublin.City, participants int) []byte {
	t.Helper()
	cfg := durableConfig(city)
	cfg.Shards = 2
	if participants > 0 {
		cfg.Participants = testParticipants(city, participants)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pipe, _, err := sys.Pipeline(7*3600, 8*3600, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	names, err := listCheckpoints(vfs.OS{}, dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("durable run left no checkpoint (err=%v)", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func fuzzCity(t testing.TB) *dublin.City {
	t.Helper()
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 6, NumSensors: 6, Hotspots: 3, NoisyBusFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// TestCheckpointBudget is the size gate of the checkpoint format: on
// the test-scale product run the final checkpoint costs at most 8 KiB
// and measures 5.0: the engine snapshots (clocks, inertia seeds, dedup
// sets), the cursors, fired boundaries and readings — no report, since
// each leaves before its boundary's checkpoint, and no SDE row: every
// stored and pending row is in the log.
func TestCheckpointBudget(t *testing.T) {
	data := productCheckpoint(t, testCity(t), 0)
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, es := range ck.engines {
		seen += len(es.Seen)
	}
	if seen == 0 || len(ck.fires) == 0 {
		t.Fatalf("checkpoint holds %d dedup identities and %d fired boundaries; the budget would be vacuous", seen, len(ck.fires))
	}
	t.Logf("checkpoint: %d bytes, %d dedup identities, %d fired boundaries since window offset %d (consumed to %d)",
		len(data), seen, len(ck.fires), ck.windowOffset, ck.consumedOffset)
	if len(data) > 8<<10 {
		t.Errorf("checkpoint costs %d bytes, budget is %d", len(data), 8<<10)
	}

	// One state, one file: re-encoding the decoded checkpoint
	// reproduces the file byte for byte.
	again, err := ck.encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Errorf("decode→encode changed the checkpoint file (%d → %d bytes)", len(data), len(again))
	}
}

// pendingRow is one consumed-but-unadmitted row of a retained block,
// keyed by its WAL record.
type pendingRow struct {
	at       int64
	row      int
	t, arriv int64
	key      string
}

// pendingRows lists the rows of the pending set and counts the blocks
// partially admitted (next > 0).
func pendingRows(blocks []*pendingBlock) (rows []pendingRow, partial int) {
	for _, pb := range blocks {
		if pb.next > 0 {
			partial++
		}
		for r := pb.next; r < pb.consumed; r++ {
			rows = append(rows, pendingRow{pb.at, r, pb.batch.Times[r], pb.batch.Arrivals[r], pb.batch.Keys[r]})
		}
	}
	return rows, partial
}

// TestCheckpointMidBlockCursors: a checkpoint taken while retained
// blocks are partially admitted (next > 0) is rebuilt to exactly that
// pending set — the epoch dies right after that checkpoint, leaving the
// log at its consumption offset, the next one rebuilds its window from
// the log with nothing left to replay — and every report either epoch
// emits is the uninterrupted run's.
func TestCheckpointMidBlockCursors(t *testing.T) {
	city := testCity(t)
	cfg := durableConfig(city)
	cfg.Shards = 2
	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe, _, err := plain.Pipeline(replayFrom, replayUntil, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[Time]string)
	crashed := newDurableReplay(t, city, nil)
	if crashed.run(t, 2) {
		t.Fatal("the run ended before its second checkpoint")
	}
	for _, it := range crashed.pipe.Reports.Items() {
		rep := it[itemReport].(*Report)
		got[rep.Q] = rep.Fingerprint()
	}
	before, partial := pendingRows(crashed.rt.proc.adm.blocks)
	if partial == 0 {
		t.Fatal("no retained block was partially admitted at the checkpoint: the rebuild of a cursor is not exercised")
	}
	crashed.close()

	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, info, err := sys.Pipeline(replayFrom, replayUntil, PipelineOptions{Durable: &DurableOptions{Dir: crashed.dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.CheckpointQ != crashed.written[1] || info.ReplayedRecords != 0 || info.RebuiltEvents == 0 {
		t.Fatalf("second epoch RecoveryInfo = %+v, want a rebuild of the second checkpoint and nothing to replay", info)
	}
	if after, _ := pendingRows(resumed.proc.durable.proc.adm.blocks); !slices.Equal(after, before) {
		t.Errorf("the rebuild retained %d pending rows, the crashed epoch %d, or other ones", len(after), len(before))
	}
	reports, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		got[rep.Q] = rep.Fingerprint()
	}
	if len(got) != len(want) {
		t.Errorf("epochs emitted %d distinct boundaries, uninterrupted run %d", len(got), len(want))
	}
	for _, rep := range want {
		if got[rep.Q] != rep.Fingerprint() {
			t.Errorf("q=%d diverged:\n  epochs: %s\n  plain:  %s", int64(rep.Q), got[rep.Q], rep.Fingerprint())
		}
	}
}

// TestUnsupportedCheckpointFormat: a directory whose newest intact
// checkpoint was written in a format this build cannot read must stop
// recovery with a distinct error — not count as corruption, fall
// through to an empty start and die on a truncated log. CRC-invalid
// files keep the skip-and-fall-back behaviour.
func TestUnsupportedCheckpointFormat(t *testing.T) {
	city := fuzzCity(t)
	valid := productCheckpoint(t, city, 0)
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40

	write := func(dir string, q Time, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, checkpointName(q)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cfg := durableConfig(city)
	cfg.Shards = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Formats 2 and 3 carried the engines' stores and the pending rows
	// (2 also a reduce engine's section), format 4 neither the crowd's
	// verdicts nor the estimator, format 5 not the run's identity: they
	// must be refused by their format byte, never decoded and handed to a
	// recovery that would not rebuild what they hold.
	for _, format := range []byte{1, 2, 3, 4, 5} {
		old := append([]byte(nil), valid...)
		old[ckptFormatAt] = format
		binary.LittleEndian.PutUint32(old[ckptCRCAt:], crc32.Checksum(old[ckptFormatAt:], ckptCRC))
		want := fmt.Sprintf("unsupported checkpoint format %d", format)

		dir := t.TempDir()
		write(dir, 100, old)
		write(dir, 200, old)
		info := &RecoveryInfo{}
		if _, err := sys.loadLatestCheckpoint(vfs.OS{}, dir, info); !errors.Is(err, errUnsupportedFormat) ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("format-%d directory: err = %v, want %s", format, err, want)
		}
		if info.CorruptCheckpoints != 0 {
			t.Errorf("format-%d files counted as corrupt: %+v", format, info)
		}
		if _, _, err := sys.Pipeline(7*3600, 8*3600, PipelineOptions{Durable: &DurableOptions{Dir: dir}}); !errors.Is(err, errUnsupportedFormat) {
			t.Fatalf("durable Pipeline over a format-%d directory: err = %v", format, err)
		}
		if off, err := gcCheckpoints(vfs.OS{}, dir); err != nil || off >= 0 {
			t.Errorf("GC offered truncation point %d (err=%v) behind an unreadable format-%d checkpoint", off, err, format)
		}
	}

	// A corrupt newest file still falls back to the valid one beneath.
	dir := t.TempDir()
	write(dir, 100, valid)
	write(dir, 200, corrupt)
	info := &RecoveryInfo{}
	ck, err := sys.loadLatestCheckpoint(vfs.OS{}, dir, info)
	if err != nil || ck == nil {
		t.Fatalf("corrupt-over-valid directory: ck=%v err=%v", ck, err)
	}
	if info.CorruptCheckpoints != 1 || !info.Resumed || info.CheckpointQ != 100 || info.CheckpointBytes != int64(len(valid)) {
		t.Errorf("fallback RecoveryInfo = %+v", info)
	}
	if off, err := gcCheckpoints(vfs.OS{}, dir); err != nil || off != ck.windowOffset {
		t.Errorf("GC truncation point = %d (err=%v), want the retained checkpoint's window offset %d", off, err, ck.windowOffset)
	}
}

// TestResumeRefusesAnotherRun: a durable directory resumes only the run
// that wrote it. The stream cursors count envelopes of one collection,
// so a restart over another window or another input would skip the
// wrong envelopes — a 1 h run restarted as a 2 h one resumed and lost
// half a boundary's SDEs without an error. Recovery refuses it, naming
// both runs, and leaves the directory to the run that wrote it.
func TestResumeRefusesAnotherRun(t *testing.T) {
	city := fuzzCity(t)
	const from, until = 7 * 3600, 8 * 3600
	recorded := city.Collect(from, until)
	dir := t.TempDir()
	run := func(until Time, replay []dublin.SDE) (*Pipeline, *RecoveryInfo, error) {
		return durableSystem(t, city).Pipeline(from, until, PipelineOptions{Replay: replay, Durable: &DurableOptions{Dir: dir}})
	}
	if err := runToEnd(context.Background())(run(until, recorded)); err != nil {
		t.Fatal(err)
	}
	wrote := fmt.Sprintf("[25200, 28800) from a replay %016x", replayDigest(recorded))
	for name, tc := range map[string]struct {
		until  Time
		replay []dublin.SDE
		want   string
	}{
		"longer window":    {9 * 3600, recorded, fmt.Sprintf("[25200, 32400) from a replay %016x", replayDigest(recorded))},
		"shorter replay":   {until, recorded[:len(recorded)-1], fmt.Sprintf("[25200, 28800) from a replay %016x", replayDigest(recorded[:len(recorded)-1]))},
		"generated stream": {until, nil, "[25200, 28800) from a generated stream"},
	} {
		if _, _, err := run(tc.until, tc.replay); err == nil || !strings.Contains(err.Error(), wrote) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: resume err = %v, want a refusal naming %q and %q", name, err, wrote, tc.want)
		}
	}
	var info *RecoveryInfo
	if err := runToEnd(context.Background())(func() (*Pipeline, *RecoveryInfo, error) {
		pipe, ri, err := run(until, recorded)
		info = ri
		return pipe, ri, err
	}()); err != nil || !info.Resumed {
		t.Fatalf("the run that wrote the directory: err = %v, RecoveryInfo %+v", err, info)
	}
}

// crowdCheckpoint is the newest checkpoint of the test-scale product run
// with eight participants: its fires carry verdicts and its estimator
// section participants.
func crowdCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	data := productCheckpoint(tb, testCity(tb), 8)
	ck, err := decodeCheckpoint(data)
	if err != nil {
		tb.Fatal(err)
	}
	verdicts := 0
	for _, f := range ck.fires {
		verdicts += len(f.verdicts)
	}
	if verdicts == 0 || len(ck.estimator.Participants()) == 0 {
		tb.Fatalf("crowd checkpoint holds %d verdicts and estimator %s", verdicts, ck.estimator)
	}
	return data
}

// TestCheckpointNamesTheCity: a checkpoint that passes its CRC but names
// a sensor or intersection the city does not have, carries a
// non-finite flow, a verdict that is neither positive nor negative or a
// fire at its own boundary cursor is corrupt: recovery falls back past
// it to the valid one beneath, as past a bad CRC.
func TestCheckpointNamesTheCity(t *testing.T) {
	city := testCity(t)
	valid := crowdCheckpoint(t)
	cfg := durableConfig(city)
	cfg.Shards = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstVerdict := func(c *checkpoint) *crowdVerdict {
		for i := range c.fires {
			if len(c.fires[i].verdicts) > 0 {
				return &c.fires[i].verdicts[0]
			}
		}
		return nil
	}
	for name, spoil := range map[string]func(c *checkpoint){
		"unknown sensor":       func(c *checkpoint) { c.traffic[0].sensor = "nowhere" },
		"NaN flow":             func(c *checkpoint) { c.traffic[0].flow = math.NaN() },
		"infinite flow":        func(c *checkpoint) { c.traffic[0].flow = math.Inf(-1) },
		"unknown intersection": func(c *checkpoint) { c.crowd[0].inter = "nowhere" },
		"unknown verdict site": func(c *checkpoint) { firstVerdict(c).inter = "nowhere" },
		"verdict label":        func(c *checkpoint) { firstVerdict(c).label = "maybe" },
		"fire past the cursor": func(c *checkpoint) { c.fires[len(c.fires)-1].q = c.nextQ },
	} {
		t.Run(name, func(t *testing.T) {
			ck, err := decodeCheckpoint(valid)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.traffic) == 0 || len(ck.crowd) == 0 {
				t.Fatalf("checkpoint holds %d sensor and %d crowd readings", len(ck.traffic), len(ck.crowd))
			}
			spoil(ck)
			bad, err := ck.encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for q, data := range map[Time][]byte{100: valid, 200: bad} {
				if err := os.WriteFile(filepath.Join(dir, checkpointName(q)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			info := &RecoveryInfo{}
			got, err := sys.loadLatestCheckpoint(vfs.OS{}, dir, info)
			if err != nil || got == nil || info.CheckpointQ != 100 || info.CorruptCheckpoints != 1 {
				t.Errorf("loaded %v (err %v), RecoveryInfo %+v: want the valid checkpoint past one corrupt", got != nil, err, info)
			}
		})
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder
// and the GC's header reader: nothing panics, the two agree on the
// envelope, and whatever decodes re-encodes to a fixed point — bytes
// that decode to a checkpoint encoding to the same bytes. Inputs get
// their CRC patched so the fuzzer reaches the section decoders instead
// of dying on the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(crowdCheckpoint(f))
	seed := productCheckpoint(f, fuzzCity(f), 0)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:ckptHeader])
	f.Add(seed[:ckptHeader-3])
	for _, at := range []int{3, ckptFormatAt, ckptHeader + 1, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
		flipped := append([]byte(nil), seed...)
		flipped[at] ^= 0x04
		f.Add(flipped)
	}
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, patch := range []bool{false, true} {
			if patch {
				if len(data) <= ckptFormatAt {
					return
				}
				data = append([]byte(nil), data...)
				binary.LittleEndian.PutUint32(data[ckptCRCAt:], crc32.Checksum(data[ckptFormatAt:], ckptCRC))
			}
			off, herr := checkpointOffset(data)
			ck, err := decodeCheckpoint(data)
			if err != nil {
				continue
			}
			if herr != nil || off != ck.windowOffset {
				t.Fatalf("header reader disagrees with the decoder: off=%d err=%v, decoded %d", off, herr, ck.windowOffset)
			}
			enc, err := ck.encode(nil)
			if err != nil {
				t.Fatalf("decoded checkpoint does not re-encode: %v", err)
			}
			again, err := decodeCheckpoint(enc)
			if err != nil {
				t.Fatalf("re-encoded checkpoint does not decode: %v", err)
			}
			enc2, err := again.encode(nil)
			if err != nil || !bytes.Equal(enc, enc2) {
				t.Fatalf("re-encoding is not a fixed point (err=%v)", err)
			}
		}
	})
}
