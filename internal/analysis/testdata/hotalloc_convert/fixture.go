// Package hcfix exercises the hotalloc batch-path scoping of package
// dublin. It is loaded under the import path "fixture/dublin", so the
// recorded-stream converter (BatchSDEs and its per-row appendSDE) and
// CollectBatches form the batch path: a recorded SDE is read out of
// the map it arrived in, never copied into a new one on its way into a
// batch row.
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
