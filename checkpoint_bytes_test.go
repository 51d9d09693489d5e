package insight

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/streams"
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
// end-of-stream markers last. Every report is acknowledged as it fires
// (an operator sink that never lags), so no report — whose Stats carry
// wall-clock times — rides in a checkpoint.
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

func newDurableReplay(tb testing.TB, city *dublin.City) *durableReplay {
	tb.Helper()
	cfg := durableConfig(city)
	cfg.Shards = 2
	sys, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := &durableReplay{dir: tb.TempDir()}
	pipe, _, err := sys.BuildDurablePipeline(replayFrom, replayUntil, DurableOptions{
		Dir: r.dir,
		CheckpointFailpoint: func(q Time) CheckpointCrash {
			r.written = append(r.written, q)
			return CrashNone
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	r.pipe, r.rt = pipe, pipe.durable
	r.rt.proc.onReport = func(rep *Report) error {
		r.rt.st.noteAck(rep.Q)
		return nil
	}
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
	for r.fed < len(r.items) {
		it := r.items[r.fed]
		r.fed++
		var err error
		if b, ok := streams.ItemBatch(it); ok {
			if _, err = app.ProcessBatch(b); err == nil {
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
	for i, n := 0, d.Count(); i < n; i++ { // cursors
		_, _, _ = d.String(), d.Uvarint(), d.Varint()
	}
	for i, n := 0, d.Count(); i < n; i++ { // pending rows
		d.Bytes(d.Count())
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
// writes byte-identical checkpoint files; a pending record encoded
// through a recycled batch would carry the pool's leftover dictionaries
// and differ. The engine sections are pinned by digest. The shard
// sections are byte for byte those the comparison-sort encoder of the
// Fresh dedup set wrote; the tier section's dedup list is empty, since
// the shards' lists are the tier's whole dedup state.
func TestCheckpointBytesDeterministic(t *testing.T) {
	want := []string{
		"0720af18239e495baa52e87b54b055c675ef9fe6e37fd9185c21b714d11b985a", // q=07:30
		"f06faf95928809f2ec251e7d4945891164a4298e9a03cec032e722515f7d77b9", // q=07:45
		"48c9a864811fd38e1772397928ef7b66c5c8f930f13ef91f4990d0a51e6793d4", // q=08:00
	}
	city := oneXCity(t)
	var runs [2][][]byte
	for i := range runs {
		r := newDurableReplay(t, city)
		r.run(t, 0)
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
		t.Logf("checkpoint %d: q=%d, %d bytes, %d pending records", i, ck.nextQ, len(data), len(ck.pendingBatches))
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
}

// BenchmarkCheckpoint measures one checkpoint of the 1× durable run at
// its second boundary (the deterministic state TestCheckpointBytesDeterministic
// pins): build — engine snapshots, pending rows, readings — and encode
// into the file bytes. Disk writes are not timed. Reports the file size
// (B/ckpt), the Fresh dedup identities the shard engines hold (seen) and
// the consumed-but-unadmitted rows (pending). A CPU profile is one flag
// away: make bench-checkpoint BENCHFLAGS=-cpuprofile=cpu.prof
func BenchmarkCheckpoint(b *testing.B) {
	r := newDurableReplay(b, oneXCity(b))
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
