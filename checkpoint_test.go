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
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
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
// the test-scale product run a checkpoint costs at most 64 bytes per
// stored input SDE — every stored row is one, replicas included, since
// no engine of the tier stores derived rows — and measures 27.0 (the
// row-oriented JSON form cost about 450). Bytes are a pure function of
// the state, so the gate has no noise band.
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
	t.Logf("checkpoint: %d bytes for %d stored SDEs = %.1f B/SDE", len(data), stored, per)
	if per > 64 {
		t.Errorf("checkpoint costs %.1f bytes per stored SDE, budget is 64", per)
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
