// Package hcfix exercises the hotalloc scoping of package dublin. It is
// loaded under the import path "fixture/dublin", so the recorded-stream
// converter (BatchSDEs and its per-row appendSDE), CollectBatches and
// the generator's arrival drain form the batch path: a recorded SDE is
// read out of the map it arrived in, never copied into a new one on its
// way into a batch row, and the drain never materializes one. The
// ground-truth field (CongestionAt, IsCongested) is per-call: nothing
// allocated in its loops.
package hcfix

// Event mirrors the recorded event.
type Event struct {
	Key   string
	Attrs map[string]any
}

// NewEvent builds a map-backed event.
func NewEvent(key string, attrs map[string]any) Event { return Event{Key: key, Attrs: attrs} }

// Batch is a minimal columnar batch.
type Batch struct {
	Keys []string
	F    []float64
}

// BatchSDEs normalizes each SDE into a fresh map before appending it:
// the per-row make is flagged.
func BatchSDEs(sdes []Event) *Batch {
	b := &Batch{}
	for _, ev := range sdes {
		norm := make(map[string]any, len(ev.Attrs))
		for k, v := range ev.Attrs {
			norm[k] = v
		}
		appendSDE(b, Event{Key: ev.Key, Attrs: norm})
	}
	return b
}

// appendSDE re-materializes the event per column: flagged. Reading the
// attribute map the SDE came with is what the converter is for, and
// passes.
func appendSDE(b *Batch, ev Event) {
	for _, name := range []string{"lon", "lat"} {
		cp := NewEvent(ev.Key, ev.Attrs)
		if f, ok := cp.Attrs[name].(float64); ok {
			b.F = append(b.F, f)
		}
	}
	b.Keys = append(b.Keys, ev.Key)
}

// Collect is the map-backed emission, not a batch-path function: the
// same patterns pass.
func Collect(keys []string) []Event {
	var out []Event
	for _, k := range keys {
		out = append(out, NewEvent(k, map[string]any{"lon": 0.0}))
	}
	return out
}

// drain materializes each row before handing it on: flagged. Buffering
// the rows it holds back is what it is for, and passes.
func drain(keys []string, emit func(Event)) {
	var held []string
	for _, k := range keys {
		held = append(held, k)
		emit(NewEvent(k, nil))
	}
}

// grid lists hotspot indexes per cell.
type grid struct{ cells [][]int32 }

// CongestionAt gathers the cell's candidates into a fresh slice before
// scanning them: the per-candidate append is flagged.
func (g *grid) CongestionAt(cell int, field []float64) float64 {
	var cands []int32
	for _, i := range g.cells[cell] {
		cands = append(cands, i)
	}
	best := 0.0
	for _, i := range cands {
		best = max(best, field[i])
	}
	return best
}

// IsCongested reads the cell's list in place and returns at the first
// witness: passes.
func (g *grid) IsCongested(cell int, field []float64) bool {
	for _, i := range g.cells[cell] {
		if field[i] >= 0.7 {
			return true
		}
	}
	return false
}
