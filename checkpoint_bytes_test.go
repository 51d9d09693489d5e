package insight

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
)

// The 1× durable window: the product configuration at paper scale, as
// the end-to-end benchmark's durable workload runs it (07:00–07:45,
// three boundaries).
const replayFrom, replayUntil = 7 * 3600, 7*3600 + 2700

// durableReplay is one durable run over the 1× window driven the way
// recovery replay drives the processor — on the calling goroutine, no
// topology — so the run is a pure function of the input: the five
// streams' envelopes merged by first arrival (ties in stream order), each
// appended to the WAL and then consumed by the monitoring processor, the
// end-of-stream markers last. Reports go to onReport as they fire, or
// to pipe.Reports when it is nil.
type durableReplay struct {
	rt    *durableRuntime
	pipe  *Pipeline
	dir   string
	items []streams.Item // the fixed interleaving
	fed   int            // items consumed so far
	// written collects the boundary cursor of every checkpoint write.
	written []Time
	// ckpts holds every checkpoint file the run wrote, in order.
	ckpts  [][]byte
	closed bool
}

func newDurableReplay(tb testing.TB, city *dublin.City, onReport func(*Report) error) *durableReplay {
	tb.Helper()
	cfg := durableConfig(city)
	cfg.Shards = 2
	sys, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := &durableReplay{dir: tb.TempDir()}
	pipe, _, err := sys.Pipeline(replayFrom, replayUntil, PipelineOptions{OnReport: onReport, Durable: &DurableOptions{
		Dir: r.dir,
		CheckpointFailpoint: func(q Time) CheckpointCrash {
			r.written = append(r.written, q)
			return CrashNone
		},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	r.pipe, r.rt = pipe, pipe.proc.durable
	type keyed struct {
		it      streams.Item
		arrival int64
		stream  int
	}
	var envs, eofs []keyed
	for si, src := range pipe.replay {
		arrival := int64(replayFrom)
		for it, ok := src.Read(); ok; it, ok = src.Read() {
			b, isBatch := streams.ItemBatch(it)
			if !isBatch {
				eofs = append(eofs, keyed{it: it})
				continue
			}
			if b.Len() > 0 {
				arrival = b.Arrivals[0]
			}
			envs = append(envs, keyed{it, arrival, si})
		}
	}
	slices.SortStableFunc(envs, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.stream, b.stream))
	})
	for _, k := range append(envs, eofs...) {
		r.items = append(r.items, k.it)
	}
	tb.Cleanup(r.close)
	return r
}

// run feeds items until the run has written stopAfter checkpoints (0:
// to the end, Flush included), and reports whether it reached the end.
func (r *durableReplay) run(tb testing.TB, stopAfter int) bool {
	tb.Helper()
	app := &walAppender{log: r.rt.log, st: r.rt.st}
	p := r.rt.proc
	validate := sdeValidator{areas: p.system.areas}
	for r.fed < len(r.items) {
		it := r.items[r.fed]
		r.fed++
		var err error
		if b, ok := streams.ItemBatch(it); ok {
			if _, err = validate.ProcessBatch(b); err == nil {
				_, err = app.ProcessBatch(b)
			}
			if err == nil {
				_, err = p.ProcessBatch(b)
			}
		} else {
			_, err = p.Process(it)
		}
		if err != nil {
			tb.Fatal(err)
		}
		r.collect(tb)
		if stopAfter > 0 && len(r.ckpts) >= stopAfter {
			return false
		}
	}
	if _, err := p.Flush(); err != nil {
		tb.Fatal(err)
	}
	r.collect(tb)
	return true
}

// collect reads the files of checkpoints written since the last call.
// At most one is written per processor call and GC keeps two, so each is
// still on disk.
func (r *durableReplay) collect(tb testing.TB) {
	tb.Helper()
	for len(r.ckpts) < len(r.written) {
		data, err := os.ReadFile(filepath.Join(r.dir, checkpointName(r.written[len(r.ckpts)])))
		if err != nil {
			tb.Fatal(err)
		}
		r.ckpts = append(r.ckpts, data)
	}
}

// close returns what the run did not consume to the transport pool and
// closes the log.
func (r *durableReplay) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, it := range r.items[r.fed:] {
		streams.Discard(it)
	}
	r.fed = len(r.items)
	r.pipe.release()
	r.rt.log.Close()
}

// engineSections returns the raw engine snapshot sections of checkpoint
// file bytes (see checkpoint.encode for the layout).
func engineSections(tb testing.TB, data []byte) [][]byte {
	tb.Helper()
	d := codec.NewDecoder(data[ckptHeader:])
	// The run identity, then the cursors.
	_, _, _ = d.Varint(), d.Varint(), d.Uvarint()
	for i, n := 0, d.Count(); i < n; i++ {
		_, _, _ = d.String(), d.Uvarint(), d.Varint()
	}
	for i, n := 0, d.Count(); i < n; i++ { // fired boundaries
		_, _ = d.Varint(), d.Varint()
		for j, m := 0, d.Count(); j < m; j++ { // their verdicts
			_, _ = d.String(), d.String()
		}
	}
	var out [][]byte
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		size := d.Bytes(4)
		out = append(out, d.Bytes(int(binary.LittleEndian.Uint32(size))))
	}
	if err := d.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// enginesDigest is the sha256 of a checkpoint's engine sections, each
// length-prefixed.
func enginesDigest(tb testing.TB, data []byte) string {
	tb.Helper()
	h := sha256.New()
	for _, sec := range engineSections(tb, data) {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(sec))))
		h.Write(sec)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func oneXCity(tb testing.TB) *dublin.City {
	tb.Helper()
	city, err := dublin.NewCity(dublin.Config{Seed: 42})
	if err != nil {
		tb.Fatal(err)
	}
	return city
}

// TestCheckpointBytesDeterministic: a checkpoint file is a pure function
// of the recovery state. The same 1× durable run, driven twice in one
// process — the second time on a transport pool the first one warmed —
// writes byte-identical checkpoint files. The engine sections are pinned
// by digest. The shard sections are byte for byte those the
// comparison-sort encoder of the Fresh dedup set wrote; the tier
// section's dedup list is empty, since the shards' lists are the tier's
// whole dedup state. After every checkpoint the log still holds every
// record from each retained checkpoint's window offset on.
//
// The reports' Span records charge every checkpoint but the last: a
// record carries the checkpoints written since the previous record, and
// the run's final checkpoint is written after its last report.
func TestCheckpointBytesDeterministic(t *testing.T) {
	want := []string{
		"a76a095255f903edfd932d8ca158223ae0a020efa86a942268bec1835186b98f", // q=07:30
		"e69a93ae9e118a2db5ed42842e0545edb8ebedda535f235332ba6d4c45a57533", // q=07:45
		"7cbc924db797fcf2f647e09d9ad53a4b273838f12171975c129603b6f0d7f040", // q=08:00
	}
	city := oneXCity(t)
	var runs [2][][]byte
	var charged Span // summed over the first run's reports
	for i := range runs {
		r := newDurableReplay(t, city, nil)
		if i == 0 {
			ack := r.rt.proc.onReport
			r.rt.proc.onReport = func(rep *Report) error {
				charged.Checkpoints += rep.Span.Checkpoints
				charged.CheckpointBytes += rep.Span.CheckpointBytes
				return ack(rep)
			}
		}
		for k := 1; !r.run(t, k); k++ {
			r.checkLogFront(t)
		}
		r.checkLogFront(t)
		runs[i] = r.ckpts
		r.close()
	}
	if len(runs[0]) != len(want) {
		t.Fatalf("run wrote %d checkpoints, want %d", len(runs[0]), len(want))
	}
	for i, data := range runs[0] {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("checkpoint %d: q=%d, %d bytes, window %d, consumed %d, %d fired boundaries", i, ck.nextQ, len(data), ck.windowOffset, ck.consumedOffset, len(ck.fires))
		if i < len(runs[1]) && !slices.Equal(data, runs[1][i]) {
			t.Errorf("checkpoint %d differs between two runs of the same input (%d vs %d bytes)", i, len(data), len(runs[1][i]))
		}
		if got := enginesDigest(t, data); got != want[i] {
			t.Errorf("checkpoint %d engine sections digest = %s, want %s", i, got, want[i])
		}
	}
	if len(runs[1]) != len(runs[0]) {
		t.Errorf("second run wrote %d checkpoints, first %d", len(runs[1]), len(runs[0]))
	}
	var bytesBeforeLast int64
	for _, data := range runs[0][:len(runs[0])-1] {
		bytesBeforeLast += int64(len(data))
	}
	if charged.Checkpoints != len(runs[0])-1 || charged.CheckpointBytes != bytesBeforeLast {
		t.Errorf("reports' Span records charge %d checkpoints of %d bytes, want %d of %d: all but the run's last",
			charged.Checkpoints, charged.CheckpointBytes, len(runs[0])-1, bytesBeforeLast)
	}
}

// TestReportsLeaveOneWay: a durable run hands every report over as its
// boundary fires, to OnReport or to Pipeline.Reports alike, before the
// boundary's checkpoint. The 1× durable run driven with an OnReport
// callback and without one delivers the same fingerprint sequence and
// writes byte-identical checkpoint files: no checkpoint carries a
// report.
func TestReportsLeaveOneWay(t *testing.T) {
	city := oneXCity(t)
	var viaCallback, viaCollector []string
	cb := newDurableReplay(t, city, func(rep *Report) error {
		viaCallback = append(viaCallback, rep.Fingerprint())
		return nil
	})
	cb.run(t, 0)
	col := newDurableReplay(t, city, nil)
	col.run(t, 0)
	for _, it := range col.pipe.Reports.Items() {
		viaCollector = append(viaCollector, it[itemReport].(*Report).Fingerprint())
	}
	if len(viaCallback) == 0 || !slices.Equal(viaCallback, viaCollector) {
		t.Errorf("OnReport got %d reports, the collector %d, or other ones", len(viaCallback), len(viaCollector))
	}
	if len(cb.ckpts) == 0 || len(cb.ckpts) != len(col.ckpts) {
		t.Fatalf("%d checkpoints with OnReport, %d without", len(cb.ckpts), len(col.ckpts))
	}
	for i := range cb.ckpts {
		if !slices.Equal(cb.ckpts[i], col.ckpts[i]) {
			t.Errorf("checkpoint %d: %d B with OnReport, %d B without", i, len(cb.ckpts[i]), len(col.ckpts[i]))
		}
	}
}

// checkLogFront fails unless the log can be read from the window offset
// of every checkpoint left in the run's directory: checkpoint GC never
// truncates the log past a retained checkpoint's window.
func (r *durableReplay) checkLogFront(tb testing.TB) {
	tb.Helper()
	names, err := listCheckpoints(vfs.OS{}, r.dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(r.dir, name))
		if err != nil {
			tb.Fatal(err)
		}
		off, err := checkpointOffset(data)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := wal.OpenReader(filepath.Join(r.dir, "wal"), off); err != nil {
			tb.Errorf("%s: the log cannot be read from its window offset %d: %v", name, off, err)
		}
	}
}

// BenchmarkCheckpoint measures one checkpoint of the 1× durable run at
// its second boundary (the deterministic state TestCheckpointBytesDeterministic
// pins): build — engine snapshots, window offset, readings — and encode
// into the file bytes. Disk writes are not timed. Reports the file size
// (B/ckpt), the Fresh dedup identities the shard engines hold (seen) and
// the consumed-but-unadmitted rows recovery rebuilds (pending). A CPU
// profile is one flag away: make bench-checkpoint
// BENCHFLAGS=-cpuprofile=cpu.prof
func BenchmarkCheckpoint(b *testing.B) {
	r := newDurableReplay(b, oneXCity(b), nil)
	if r.run(b, 2) {
		b.Fatal("the run ended before its second checkpoint")
	}
	rt := r.rt
	ck, err := rt.buildCheckpoint(rt.proc)
	if err != nil {
		b.Fatal(err)
	}
	data, err := ck.encode(nil)
	if err != nil {
		b.Fatal(err)
	}
	seen, pending := 0, 0
	for _, es := range ck.engines {
		seen += len(es.Seen)
	}
	for _, pb := range rt.proc.adm.blocks {
		pending += pb.consumed - pb.next
	}
	report := func(b *testing.B) {
		b.ReportMetric(float64(len(data)), "B/ckpt")
		b.ReportMetric(float64(seen), "seen")
		b.ReportMetric(float64(pending), "pending")
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rt.buildCheckpoint(rt.proc); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(data))
		for i := 0; i < b.N; i++ {
			if buf, err = ck.encode(buf[:0]); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}

// BenchmarkRecovery times a durable System.Pipeline build on the directory of the
// 1× durable run killed right after its second boundary's checkpoint
// became durable — the kill cmd/e2ebench's insight.recover_ms uses: load
// that checkpoint, restore the engines, rebuild their working memory and
// the pending set from the log's window and replay the log's tail. The
// recovery checkpoint is Pipeline.Run's first write, not timed here.
// Every iteration recovers a fresh copy of the
// killed run's directory; the copy is not timed. Reports the loaded
// checkpoint's size (B/ckpt), the SDE rows re-read for the rebuild
// (rebuilt) and the WAL records replayed beside ns/op.
// The replay volume depends on how far the appender ran ahead of the
// monitoring process before the kill, so it can differ between runs.
func BenchmarkRecovery(b *testing.B) {
	city := oneXCity(b)
	build := func(dur DurableOptions) (*Pipeline, *RecoveryInfo) {
		cfg := durableConfig(city)
		cfg.Shards = 2
		sys, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pipe, info, err := sys.Pipeline(replayFrom, replayUntil, PipelineOptions{Durable: &dur})
		if err != nil {
			b.Fatal(err)
		}
		return pipe, info
	}
	killed := b.TempDir()
	pipe, _ := build(DurableOptions{Dir: killed, CheckpointFailpoint: func(q Time) CheckpointCrash {
		if q > replayFrom+2*900 {
			return CrashAfterCheckpoint
		}
		return CrashNone
	}})
	if _, err := pipe.Run(context.Background()); !errors.Is(err, wal.ErrCrashPoint) {
		b.Fatalf("killed run ended with %v, want the injected crash", err)
	}
	// A cancelled Run is the only way to close a built pipeline's log.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var info *RecoveryInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "recover")
		copyTree(b, killed, dir)
		b.StartTimer()
		pipe, info = build(DurableOptions{Dir: dir})
		b.StopTimer()
		_, _ = pipe.Run(cancelled)
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(info.CheckpointBytes), "B/ckpt")
	b.ReportMetric(float64(info.RebuiltEvents), "rebuilt")
	b.ReportMetric(float64(info.ReplayedRecords), "records")
}

// copyTree copies the regular files under src to dst.
func copyTree(tb testing.TB, src, dst string) {
	tb.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		tb.Fatal(err)
	}
}
