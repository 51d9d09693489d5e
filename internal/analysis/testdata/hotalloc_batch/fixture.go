// Package hbfix exercises the hotalloc batch-path rule. It is loaded
// under the import path "fixture/streams", so the functions named
// AppendRowFrom and faultBatchLocked form the columnar batch path and must
// not materialize per-row maps — at any loop depth — and Wait is a
// per-call function.
package hbfix

import "context"

// Item mirrors the transport item: a per-event attribute map.
type Item map[string]any

// Batch is a minimal columnar batch.
type Batch struct {
	Times []int64
	Keys  []string
}

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.Times) }

// ItemAt rebuilds the map view of one row. Defining it is fine — only
// calling it per row inside a batch loop is flagged.
func (b *Batch) ItemAt(i int) Item {
	return Item{"time": b.Times[i], "key": b.Keys[i]}
}

// Clone copies an item.
func (it Item) Clone() Item {
	out := make(Item, len(it))
	for k, v := range it {
		out[k] = v
	}
	return out
}

// faultBatchLocked re-materializes every row: the ItemAt and Clone calls are
// flagged, and so is the map literal in the nested loop — batch rules
// apply at every depth, not just the innermost.
func faultBatchLocked(b *Batch) []Item {
	var out []Item
	for i := 0; i < b.Len(); i++ {
		it := b.ItemAt(i)
		out = append(out, it.Clone())
		for j := 0; j < 2; j++ {
			attrs := map[string]any{"dup": j}
			_ = attrs
		}
	}
	return out
}

// AppendRowFrom builds a scratch map per row: the make is flagged; the
// plain slice appends are fine on the batch path (amortized growth).
func (b *Batch) AppendRowFrom(src *Batch, i int) {
	for k := 0; k <= i; k++ {
		scratch := make(map[string]int, 1)
		scratch["row"] = k
		b.Times = append(b.Times, src.Times[k])
		b.Keys = append(b.Keys, src.Keys[k])
	}
}

// copyOut is not a batch-path function: the same patterns pass.
func copyOut(b *Batch) []Item {
	var out []Item
	for i := 0; i < b.Len(); i++ {
		out = append(out, b.ItemAt(i))
	}
	return out
}

type pool struct{}

// faultBatchLocked (the method) carries a sanctioned materialization: the
// suppression comment keeps it out of the diagnostics.
func (pool) faultBatchLocked(b *Batch) {
	for i := 0; i < b.Len(); i++ {
		_ = b.ItemAt(i) //lint:allow hotalloc fixture: sanctioned materialization
	}
}

// Wait is a per-call function: a context callback registered in its
// loop is flagged; the allowed registration is not.
func Wait(ctx context.Context, rounds int) {
	for i := 0; i < rounds; i++ {
		stop := context.AfterFunc(ctx, func() {})
		stop()
		stop = context.AfterFunc(ctx, func() {}) //lint:allow hotalloc fixture: the sanctioned slow path
		stop()
	}
}
