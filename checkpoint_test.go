package insight

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
)

// productCheckpoint runs the durable pipeline in the product
// configuration (2 shards, column store, a checkpoint per boundary)
// over one test-scale hour and returns the newest checkpoint file it
// left behind.
func productCheckpoint(t testing.TB, city *dublin.City) []byte {
	t.Helper()
	cfg := durableConfig(city)
	cfg.Shards = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pipe, _, err := sys.BuildDurablePipeline(7*3600, 8*3600, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	names, err := listCheckpoints(dir)
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
// the test-scale product run a checkpoint costs at most 32 bytes per
// stored input SDE — every stored row is one, replicas included, since
// no engine of the tier stores derived rows — and measures 26.9 (the
// row-oriented JSON form cost about 450). Bytes are a pure function of
// the state, so the gate has no noise band. Every pending record's
// dictionaries hold only what its rows use: a record encoded through a
// recycled transport batch once carried the pool's whole vocabulary.
func TestCheckpointBudget(t *testing.T) {
	data := productCheckpoint(t, testCity(t))
	ck, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, es := range ck.engines {
		for _, ts := range es.Types {
			stored += ts.Rows.Len()
		}
	}
	if stored < 1000 {
		t.Fatalf("checkpoint holds only %d stored SDEs; the budget would be vacuous", stored)
	}
	per := float64(len(data)) / float64(stored)
	t.Logf("checkpoint: %d bytes for %d stored SDEs = %.1f B/SDE, %d pending records", len(data), stored, per, len(ck.pendingBatches))
	if per > 32 {
		t.Errorf("checkpoint costs %.1f bytes per stored SDE, budget is 32", per)
	}
	if len(ck.pendingBatches) == 0 {
		t.Fatal("checkpoint carries no pending record; the dictionary check would be vacuous")
	}
	for i, payload := range ck.pendingBatches {
		if err := dictionariesUsed(payload); err != nil {
			t.Errorf("pending record %d: %v", i, err)
		}
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

// dictionariesUsed decodes a pending record and reports a key or string
// dictionary entry none of its rows uses.
func dictionariesUsed(payload []byte) error {
	b, err := wal.DecodeBatch(payload)
	if err != nil {
		return err
	}
	unused := func(what string, dict []string, ids []uint32) error {
		used := make([]bool, len(dict))
		for _, id := range ids {
			used[id] = true
		}
		if i := slices.Index(used, false); i >= 0 {
			return fmt.Errorf("%s dictionary of %d rows holds %q, which no row uses (%d entries)", what, b.Len(), dict[i], len(dict))
		}
		return nil
	}
	errs := []error{unused("key", b.KDict, b.KIdx)}
	for ci := range b.Cols {
		if c := &b.Cols[ci]; c.Kind == streams.ColStr {
			errs = append(errs, unused("column "+c.Name, c.Dict, c.SIdx))
		}
	}
	return errors.Join(errs...)
}

// TestCheckpointMidBlockCursors: a checkpoint taken while retained
// blocks are partially admitted (next > 0) carries exactly the rest of
// each — the epoch dies right after that checkpoint, the next one decodes
// and restores it, and every report either epoch emits is the
// uninterrupted run's.
func TestCheckpointMidBlockCursors(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)
	plain, err := durableSystem(t, city).BuildPipeline(from, until)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var crashed *Pipeline
	partial, pendingRows := 0, 0
	crashed, _, err = durableSystem(t, city).BuildDurablePipeline(from, until, DurableOptions{
		Dir: dir,
		CheckpointFailpoint: func(q Time) CheckpointCrash {
			if q != from+3*900 {
				return CrashNone
			}
			// The second boundary's checkpoint is encoded and about to be
			// written: this is the pending set it captured.
			for _, pb := range crashed.durable.proc.adm.blocks {
				if pb.next > 0 {
					partial++
				}
				pendingRows += pb.consumed - pb.next
			}
			return CrashAfterCheckpoint
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Run(context.Background()); !errors.Is(err, wal.ErrCrashPoint) {
		t.Fatalf("first epoch ended with %v, want the injected crash", err)
	}
	if partial == 0 {
		t.Fatal("no retained block was partially admitted at the checkpoint: the cursor encoding is not exercised")
	}
	ck, err := loadLatestCheckpoint(dir, &RecoveryInfo{})
	if err != nil {
		t.Fatal(err)
	}
	restored := 0
	for _, payload := range ck.pendingBatches {
		b, err := wal.DecodeBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		restored += b.Len()
		b.Release()
	}
	if restored != pendingRows {
		t.Errorf("checkpoint carries %d pending rows, the crashed epoch held %d in [next, consumed)", restored, pendingRows)
	}
	resumed, info, err := durableSystem(t, city).BuildDurablePipeline(from, until, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed || info.CheckpointQ != from+3*900 {
		t.Fatalf("second epoch RecoveryInfo = %+v, want a resume from the crashed checkpoint", info)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(map[Time]string)
	for _, pipe := range []*Pipeline{crashed, resumed} {
		for _, it := range pipe.Reports.Items() {
			rep := it[itemReport].(*Report)
			got[rep.Q] = rep.Fingerprint()
		}
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
	valid := productCheckpoint(t, city)
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
	// Format 2 differs from this build's only in the engine sections it
	// carries (it had one for a reduce engine): it must be refused by its
	// format byte, never decoded and handed to a tier of another shape.
	for _, format := range []byte{1, 2} {
		old := append([]byte(nil), valid...)
		old[ckptFormatAt] = format
		binary.LittleEndian.PutUint32(old[ckptCRCAt:], crc32.Checksum(old[ckptFormatAt:], ckptCRC))
		want := fmt.Sprintf("unsupported checkpoint format %d", format)

		dir := t.TempDir()
		write(dir, 100, old)
		write(dir, 200, old)
		info := &RecoveryInfo{}
		if _, err := loadLatestCheckpoint(dir, info); !errors.Is(err, errUnsupportedFormat) ||
			!strings.Contains(err.Error(), want) {
			t.Fatalf("format-%d directory: err = %v, want %s", format, err, want)
		}
		if info.CorruptCheckpoints != 0 {
			t.Errorf("format-%d files counted as corrupt: %+v", format, info)
		}
		if _, _, err := sys.BuildDurablePipeline(7*3600, 8*3600, DurableOptions{Dir: dir}); !errors.Is(err, errUnsupportedFormat) {
			t.Fatalf("BuildDurablePipeline over a format-%d directory: err = %v", format, err)
		}
		if off, err := gcCheckpoints(dir); err != nil || off >= 0 {
			t.Errorf("GC offered truncation point %d (err=%v) behind an unreadable format-%d checkpoint", off, err, format)
		}
	}

	// A corrupt newest file still falls back to the valid one beneath.
	dir := t.TempDir()
	write(dir, 100, valid)
	write(dir, 200, corrupt)
	info := &RecoveryInfo{}
	ck, err := loadLatestCheckpoint(dir, info)
	if err != nil || ck == nil {
		t.Fatalf("corrupt-over-valid directory: ck=%v err=%v", ck, err)
	}
	if info.CorruptCheckpoints != 1 || !info.Resumed || info.CheckpointQ != 100 || info.CheckpointBytes != int64(len(valid)) {
		t.Errorf("fallback RecoveryInfo = %+v", info)
	}
	if off, err := gcCheckpoints(dir); err != nil || off != ck.walOffset {
		t.Errorf("GC truncation point = %d (err=%v), want the retained checkpoint's %d", off, err, ck.walOffset)
	}
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder
// and the GC's header reader: nothing panics, the two agree on the
// envelope, and whatever decodes re-encodes to a fixed point — bytes
// that decode to a checkpoint encoding to the same bytes. Inputs get
// their CRC patched so the fuzzer reaches the section decoders instead
// of dying on the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	seed := productCheckpoint(f, fuzzCity(f))
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
			if herr != nil || off != ck.walOffset {
				t.Fatalf("header reader disagrees with the decoder: off=%d err=%v, decoded %d", off, herr, ck.walOffset)
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
