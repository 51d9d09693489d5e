// Package hcfix exercises the hotalloc rule over the resident column
// store's batch paths. It is loaded under the import path
// "fixture/rtec", so insertRows / settle / mergeIDs / appendFrom /
// gatherCol form the columnar merge path: per-row Event materialization (Event,
// At, Slice calls) and per-row map construction are flagged at any
// loop depth, while packed cell moves pass.
package hcfix

// Event mirrors the per-event record a view call materializes.
type Event struct {
	Time int64
	Key  string
}

// Block is a minimal resident column segment.
type Block struct {
	Times []int64
	KIdx  []uint32
	KDict []string
}

// Event materializes the view of one row. Defining it is fine — only
// calling it per row inside a batch-path loop is flagged.
func (b *Block) Event(i int) Event {
	return Event{Time: b.Times[i], Key: b.KDict[b.KIdx[i]]}
}

// Rows is a zero-copy window view.
type Rows struct {
	blk *Block
	ids []int32
}

// Len returns the number of rows in the view.
func (r Rows) Len() int { return len(r.ids) }

// At materializes the view event of one row.
func (r Rows) At(i int) Event { return r.blk.Event(int(r.ids[i])) }

// Slice materializes the whole view.
func (r Rows) Slice() []Event {
	out := make([]Event, r.Len())
	for i := range out {
		out[i] = r.At(i)
	}
	return out
}

type store struct {
	order []int32
}

// insertRows materializes one view event per appended row: the Event
// call is flagged — the bulk path must move packed cells instead.
func (s *store) insertRows(src *Block, rows []int32) {
	for _, r := range rows {
		ev := src.Event(int(r))
		_ = ev
		s.order = append(s.order, r)
	}
}

// mergeIDs re-materializes each merged row (flagged) and builds a
// per-row map (flagged); the slice appends themselves are fine on the
// batch path.
func mergeIDs(dst []Event, src Rows) []Event {
	for i := 0; i < src.Len(); i++ {
		dst = append(dst, src.At(i))
		attrs := map[string]any{"row": i}
		_ = attrs
	}
	return dst
}

// gatherCol flattens views via Slice per element: flagged.
func gatherCol(views []Rows) []Event {
	var out []Event
	for _, v := range views {
		out = append(out, v.Slice()...)
	}
	return out
}

// appendFrom is the sanctioned shape: packed column-to-column moves,
// no per-row materialization. Nothing is flagged.
func (b *Block) appendFrom(src *Block, rows []int32) {
	for _, r := range rows {
		b.Times = append(b.Times, src.Times[r])
		b.KIdx = append(b.KIdx, src.KIdx[r])
	}
}

// copyView is not a batch-path function: the same patterns pass.
func copyView(src Rows) []Event {
	var out []Event
	for i := 0; i < src.Len(); i++ {
		out = append(out, src.At(i))
	}
	return out
}

// settle indexes the rows filed since the last read: keying each by
// its view event is flagged.
func (s *store) settle(blk *Block, from int) map[string][]int32 {
	byKey := make(map[string][]int32)
	for id := from; id < len(blk.Times); id++ {
		k := blk.Event(id).Key
		byKey[k] = append(byKey[k], int32(id))
	}
	return byKey
}
