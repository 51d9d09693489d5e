package dublin

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// streamOf maps a materialized SDE to its input stream id, the same
// way CollectBatches splits the stream set.
func streamOf(sde SDE) string {
	if sde.Event.Type == traffic.MoveType {
		return "bus"
	}
	lon, _ := sde.Event.Float("lon")
	lat, _ := sde.Event.Float("lat")
	return "scats-" + geo.RegionOf(geo.Point{Lon: lon, Lat: lat}).String()
}

// TestCollectBatchesMatchesCollect demands row-for-row bit identity
// between the batched and the per-item emission: same events, same
// attributes, same per-stream arrival order.
func TestCollectBatchesMatchesCollect(t *testing.T) {
	city := mustCity(t, smallConfig())
	items := city.Collect(0, 1800)
	want := map[string][]SDE{}
	for _, sde := range items {
		id := streamOf(sde)
		want[id] = append(want[id], sde)
	}

	before := streams.LiveBatches()
	bstreams := mustCity(t, smallConfig()).CollectBatches(0, 1800, 64, 0)
	got := 0
	for _, bs := range bstreams {
		ref := want[bs.ID]
		ri := 0
		for _, b := range bs.Batches {
			if err := b.Check(); err != nil {
				t.Fatalf("stream %s: %v", bs.ID, err)
			}
			if b.Len() > 64 {
				t.Fatalf("stream %s: batch of %d rows exceeds maxRows", bs.ID, b.Len())
			}
			blk := Block(b)
			for i := 0; i < b.Len(); i++ {
				if ri >= len(ref) {
					t.Fatalf("stream %s: more rows than per-item events", bs.ID)
				}
				sde := ref[ri]
				ev := blk.Event(i)
				if ev.Type != sde.Event.Type || ev.Time != sde.Event.Time || ev.Key != sde.Event.Key {
					t.Fatalf("stream %s row %d: %v, want %v", bs.ID, ri, ev, sde.Event)
				}
				if arr := b.Arrivals[i]; arr != int64(sde.Arrival) {
					t.Fatalf("stream %s row %d: arrival %d, want %d", bs.ID, ri, arr, sde.Arrival)
				}
				for name := range sde.Event.Attrs {
					gv, gok := ev.Get(name)
					wv, wok := sde.Event.Get(name)
					if gv != wv || gok != wok {
						t.Fatalf("stream %s row %d attr %s: (%v, %v), want (%v, %v)",
							bs.ID, ri, name, gv, gok, wv, wok)
					}
				}
				if len(b.Cols) != len(sde.Event.Attrs) {
					t.Fatalf("stream %s row %d: %d columns, want %d attrs",
						bs.ID, ri, len(b.Cols), len(sde.Event.Attrs))
				}
				ri++
				got++
			}
		}
		if ri != len(ref) {
			t.Fatalf("stream %s: %d rows, want %d", bs.ID, ri, len(ref))
		}
	}
	if got != len(items) {
		t.Fatalf("total rows %d, want %d", got, len(items))
	}
	for _, bs := range bstreams {
		for _, b := range bs.Batches {
			b.Release()
		}
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d", live, before)
	}
}

// TestCollectBatchesSpanCut checks the arrival-span cap: no batch may
// cover more arrival time than maxSpan, so watermark punctuation stays
// fine-grained under batching.
func TestCollectBatchesSpanCut(t *testing.T) {
	city := mustCity(t, smallConfig())
	const span = 120
	for _, bs := range city.CollectBatches(0, 1800, 0, span) {
		for _, b := range bs.Batches {
			if n := b.Len(); n > 0 {
				if got := b.Arrivals[n-1] - b.Arrivals[0]; got > span {
					t.Errorf("stream %s: batch spans %d arrival seconds, cap %d", bs.ID, got, span)
				}
			}
			b.Release()
		}
	}
}

// TestBatchSDEsMatchesCollectBatches pins the recorded-stream converter
// to the generator's own batching: the recording of a window, in any
// order, converts to exactly the batches CollectBatches cuts for that
// window — same streams, same cuts, same cells, same column layout.
func TestBatchSDEsMatchesCollectBatches(t *testing.T) {
	const maxRows, span = 64, 120
	recorded := mustCity(t, smallConfig()).Collect(0, 1800)
	// Descending arrival with every same-arrival run kept in recording
	// order: the stable sort must restore the recording exactly.
	var reversed []SDE
	for hi := len(recorded); hi > 0; {
		lo := hi - 1
		for lo > 0 && recorded[lo-1].Arrival == recorded[hi-1].Arrival {
			lo--
		}
		reversed = append(reversed, recorded[lo:hi]...)
		hi = lo
	}

	before := streams.LiveBatches()
	want := mustCity(t, smallConfig()).CollectBatches(0, 1800, maxRows, span)
	for name, sdes := range map[string][]SDE{"arrival order": recorded, "descending arrival": reversed} {
		got, err := BatchSDEs(sdes, maxRows, span)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d streams, want %d", name, len(got), len(want))
		}
		for si := range want {
			if got[si].ID != want[si].ID || len(got[si].Batches) != len(want[si].Batches) {
				t.Fatalf("%s: stream %d is %s with %d batches, want %s with %d", name, si,
					got[si].ID, len(got[si].Batches), want[si].ID, len(want[si].Batches))
			}
			for bi, g := range got[si].Batches {
				w := want[si].Batches[bi]
				if err := g.Check(); err != nil {
					t.Fatalf("%s: stream %s batch %d: %v", name, w.Source, bi, err)
				}
				if g.Type != w.Type || g.Source != w.Source ||
					!slices.Equal(g.Times, w.Times) || !slices.Equal(g.Arrivals, w.Arrivals) || !slices.Equal(g.Keys, w.Keys) {
					t.Fatalf("%s: stream %s batch %d: row identity differs", name, w.Source, bi)
				}
				if len(g.Cols) != len(w.Cols) {
					t.Fatalf("%s: stream %s batch %d: %d columns, want %d", name, w.Source, bi, len(g.Cols), len(w.Cols))
				}
				for ci := range w.Cols {
					gc, wc := &g.Cols[ci], &w.Cols[ci]
					if gc.Name != wc.Name || gc.Kind != wc.Kind {
						t.Fatalf("%s: stream %s batch %d column %d is %s/%d, want %s/%d",
							name, w.Source, bi, ci, gc.Name, gc.Kind, wc.Name, wc.Kind)
					}
					for i := 0; i < w.Len(); i++ {
						if gc.Value(i) != wc.Value(i) {
							t.Fatalf("%s: stream %s batch %d row %d column %s: %v, want %v",
								name, w.Source, bi, i, wc.Name, gc.Value(i), wc.Value(i))
						}
					}
				}
				g.Release()
			}
		}
	}
	for _, bs := range want {
		for _, b := range bs.Batches {
			b.Release()
		}
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d", live, before)
	}
}

// TestBatchSDEsRejectsAndReleases: a recording with one SDE the schema
// cannot carry converts to an error naming it, and the batches cut
// before it go back to the pool.
func TestBatchSDEsRejectsAndReleases(t *testing.T) {
	recorded := mustCity(t, smallConfig()).Collect(0, 1800)
	bad := len(recorded) - 1
	recorded[bad].Event.Type = "tram"
	before := streams.LiveBatches()
	got, err := BatchSDEs(recorded, 16, 0)
	if err == nil || got != nil {
		t.Fatalf("BatchSDEs = %v, %v; want an error", got, err)
	}
	if want := fmt.Sprintf("recorded SDE %d", bad); !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), `"tram"`) {
		t.Errorf("error %q does not name %s and the type", err, want)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: the failed conversion kept buffers", live, before)
	}
}
