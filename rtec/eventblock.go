package rtec

import (
	"fmt"
	"slices"
)

// EventBlock builds a batch of same-typed events column-wise — the form
// SDEs already arrive and reside in — so a rule that derives thousands
// of events per query appends a few cells per event instead of
// allocating an attribute map and boxing every value. Declare the
// attribute columns once, then for each event call Add followed by one
// typed setter per column; Events hands out the view Events (the same
// Event{blk,row} column views the store serves), behaviourally identical
// to map-backed events carrying the same attributes.
type EventBlock struct {
	blk Block
}

// NewEventBlock starts an empty block of events of one type with the
// given attribute columns: the Name and Kind (ColFloat, ColInt, ColBool
// or ColStr) of each. Setters address columns by their position in cols.
func NewEventBlock(typ string, cols ...BCol) *EventBlock {
	b := &EventBlock{blk: Block{Type: typ, Cols: make([]BCol, len(cols))}}
	for i, c := range cols {
		if c.Kind > ColStr {
			panic(fmt.Sprintf("rtec: EventBlock column %q: unsupported kind %d", c.Name, c.Kind))
		}
		b.blk.Cols[i] = BCol{Name: c.Name, Kind: c.Kind}
	}
	return b
}

// Grow reserves room for n more events, for a rule that knows roughly
// how many it will derive.
func (b *EventBlock) Grow(n int) {
	b.blk.Times = slices.Grow(b.blk.Times, n)
	b.blk.Keys = slices.Grow(b.blk.Keys, n)
	for ci := range b.blk.Cols {
		switch c := &b.blk.Cols[ci]; c.Kind {
		case ColFloat:
			c.F = slices.Grow(c.F, n)
		case ColInt:
			c.I = slices.Grow(c.I, n)
		case ColBool:
			c.B = slices.Grow(c.B, n)
		default:
			c.SIdx = slices.Grow(c.SIdx, n)
		}
	}
}

// Add starts the next event; set each declared column once before the
// next Add.
func (b *EventBlock) Add(t Time, key string) {
	b.blk.Times = append(b.blk.Times, int64(t))
	b.blk.Keys = append(b.blk.Keys, key)
}

// Float sets a ColFloat cell of the event started by the last Add.
func (b *EventBlock) Float(col int, v float64) {
	c := &b.blk.Cols[col]
	c.F = append(c.F, v)
}

// Int sets a ColInt cell of the event started by the last Add.
func (b *EventBlock) Int(col int, v int64) {
	c := &b.blk.Cols[col]
	c.I = append(c.I, v)
}

// Str sets a ColStr cell of the event started by the last Add. Values
// are dictionary-encoded; a run of equal values (one bus matching
// several intersections) costs no lookup.
func (b *EventBlock) Str(col int, v string) {
	c := &b.blk.Cols[col]
	if n := len(c.SIdx); n > 0 && c.Dict[c.SIdx[n-1]] == v {
		c.SIdx = append(c.SIdx, c.SIdx[n-1])
		return
	}
	c.SIdx = append(c.SIdx, c.internStr(v))
}

// Block returns the built block, e.g. to hand to Engine.InputBlockRows. The
// builder must not be used afterwards. It panics if some event lacks a
// cell (or has two) in some column — a bug in the calling rule.
func (b *EventBlock) Block() *Block {
	for ci := range b.blk.Cols {
		if c := &b.blk.Cols[ci]; colLen(c) != len(b.blk.Times) {
			panic(fmt.Sprintf("rtec: EventBlock %s: column %q (kind %d) has %d cells for %d events",
				b.blk.Type, c.Name, c.Kind, colLen(c), len(b.blk.Times)))
		}
		b.blk.Cols[ci].dict = nil // interning index: build-time only
	}
	return &b.blk
}

// Events returns the built events as views over the block, in Add
// order. The builder must not be used afterwards.
func (b *EventBlock) Events() []Event {
	blk := b.Block()
	if blk.Len() == 0 {
		return nil
	}
	out := make([]Event, blk.Len())
	for i := range out {
		out[i] = blk.Event(i)
	}
	return out
}
