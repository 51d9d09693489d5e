package streams

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Columnar batches. The map-per-event Item representation pays an
// allocation, interface boxing and hash lookups per attribute per
// stage; a Batch carries thousands of homogeneous events per handoff
// as a struct of arrays — timestamps, entity keys and numeric columns
// in flat slices, categorical attributes dictionary-encoded into small
// string tables. Batches ride through the existing Item/Queue plumbing
// wrapped in a one-entry envelope item (BatchItem), so every queue,
// source wrapper and sink keeps working; processors that understand
// batches implement BatchProcessor, and everything else receives the
// rows lazily materialized as plain Items (ItemAt).
//
// Pooling lifecycle: GetBatch hands out recycled buffers from a
// per-schema pool and Release returns them. Ownership transfers
// downstream with the envelope item: whoever consumes the rows (a
// batch-aware processor that copied what it needs, or the chain after
// expanding the rows for a non-batch-aware processor) calls Release.
// A released batch must never be touched again — Append, AppendRowFrom
// and ItemAt panic on a released batch, turning aliasing bugs into
// immediate failures instead of silent data corruption.

// ColKind is the value type of one batch column.
type ColKind uint8

const (
	// ColFloat is a float64 column.
	ColFloat ColKind = iota
	// ColInt is an int64 column.
	ColInt
	// ColBool is a bool column.
	ColBool
	// ColStr is a dictionary-encoded string column: SIdx holds per-row
	// indexes into the small Dict table of distinct values.
	ColStr
)

// Col is one named column of a Batch. Exactly one of the data slices
// is populated, according to Kind; all populated slices have one entry
// per batch row.
type Col struct {
	Name string
	Kind ColKind

	F    []float64
	I    []int64
	B    []bool
	SIdx []uint32
	Dict []string

	// dict is the interning index over Dict, built lazily on append.
	dict map[string]uint32
}

// Len returns the number of rows in the column.
func (c *Col) Len() int {
	switch c.Kind {
	case ColFloat:
		return len(c.F)
	case ColInt:
		return len(c.I)
	case ColBool:
		return len(c.B)
	default:
		return len(c.SIdx)
	}
}

// AppendFloat appends a row to a ColFloat column.
func (c *Col) AppendFloat(v float64) { c.F = append(c.F, v) }

// AppendInt appends a row to a ColInt column.
func (c *Col) AppendInt(v int64) { c.I = append(c.I, v) }

// AppendBool appends a row to a ColBool column.
func (c *Col) AppendBool(v bool) { c.B = append(c.B, v) }

// AppendStr appends a row to a ColStr column, interning the value into
// the column dictionary.
func (c *Col) AppendStr(s string) {
	if c.dict == nil {
		c.dict = make(map[string]uint32, 8)
		for i, v := range c.Dict {
			c.dict[v] = uint32(i)
		}
	}
	idx, ok := c.dict[s]
	if !ok {
		idx = uint32(len(c.Dict))
		c.Dict = append(c.Dict, s)
		c.dict[s] = idx
	}
	c.SIdx = append(c.SIdx, idx)
}

// Str returns the string value of row i of a ColStr column.
func (c *Col) Str(i int) string { return c.Dict[c.SIdx[i]] }

// Value returns the boxed value of row i, typed by Kind (float64,
// int64, bool or string) — the compatibility bridge for map-shaped
// consumers. It allocates for most values; batch-path code must read
// the typed slices directly instead.
func (c *Col) Value(i int) any {
	switch c.Kind {
	case ColFloat:
		return c.F[i]
	case ColInt:
		return c.I[i]
	case ColBool:
		return c.B[i]
	default:
		return c.Dict[c.SIdx[i]]
	}
}

// reset truncates the column data, keeping the dictionary (and its
// interning index): a recycled batch re-encodes the same categorical
// vocabulary without rebuilding the table.
func (c *Col) reset() {
	c.F = c.F[:0]
	c.I = c.I[:0]
	c.B = c.B[:0]
	c.SIdx = c.SIdx[:0]
}

// Batch is a typed columnar batch of events: one SDE type, one
// originating stream, rows in arrival order. Times and Keys always
// have one entry per row; Arrivals is optional (replay/transport
// metadata) but, when present, also one per row.
type Batch struct {
	// Type is the event type shared by every row (an SDE type name).
	Type string
	// Source is the originating input stream id ("" when not
	// transport-bound).
	Source string

	Times    []int64
	Arrivals []int64
	Keys     []string
	Cols     []Col

	// KIdx/KDict dictionary-encode the entity keys in parallel with
	// Keys: KIdx[i] indexes into the append-only KDict table. Append
	// maintains them; consumers that group rows by key (the RTEC
	// store's per-key index) use the small integer ids instead of
	// hashing the key string per row. Like the column dictionaries,
	// KDict survives pool recycling — entries are never mutated or
	// removed, so an index handed out once stays valid.
	KIdx  []uint32
	KDict []string
	kdict map[string]uint32

	released bool
	pooled   bool
}

// Reserved attribute names used by ItemAt when materializing a row as
// a plain Item. Column names must not collide with them.
const (
	RowType    = "type"
	RowTime    = "time"
	RowArrival = "arrival"
	RowKey     = "key"
	RowSource  = "source"
)

// BatchKey is the envelope attribute under which a *Batch rides inside
// a one-entry Item through queues, sources and sinks.
const BatchKey = "@batch"

// BatchItem wraps a batch as its envelope item.
func BatchItem(b *Batch) Item { return Item{BatchKey: b} }

// ItemBatch unwraps an envelope item; ok is false for ordinary items.
func ItemBatch(it Item) (*Batch, bool) {
	b, ok := it[BatchKey].(*Batch)
	return b, ok
}

// batchPools holds one sync.Pool per (type, source) schema, so a
// recycled buffer always carries the column layout (and string
// dictionaries) its producer expects. Values are *sync.Pool.
var batchPools sync.Map

// liveBatches counts pool-managed batches currently checked out
// (GetBatch minus Release) — the leak observable for tests.
var liveBatches atomic.Int64

// LiveBatches returns the number of pooled batches currently in use.
// A balanced producer/consumer pair leaves the count where it found
// it; tests use the delta to prove no batch leaked past a run.
func LiveBatches() int64 { return liveBatches.Load() }

func poolFor(typ, source string) *sync.Pool {
	key := typ + "\x00" + source
	if p, ok := batchPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := batchPools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// Discard gives up an item nobody will deliver: a batch envelope's
// buffer goes back to the pool.
func Discard(it Item) {
	if b, isBatch := ItemBatch(it); isBatch {
		b.Release()
	}
}

// NewBatch builds an unpooled batch (tests, one-off producers).
func NewBatch(typ, source string) *Batch {
	return &Batch{Type: typ, Source: source}
}

// GetBatch returns an empty batch for the given type and stream from
// the per-schema pool, allocating one on a cold pool. The caller owns
// it until Release.
func GetBatch(typ, source string) *Batch {
	liveBatches.Add(1)
	if v := poolFor(typ, source).Get(); v != nil {
		b := v.(*Batch)
		b.released = false
		return b
	}
	return &Batch{Type: typ, Source: source, pooled: true}
}

// Release resets the batch and, for pooled batches, returns it to its
// schema pool. The column layout and string dictionaries survive the
// recycle; the row data is truncated. Any later use of the batch
// panics; releasing twice panics too — both are lifecycle bugs.
func (b *Batch) Release() {
	if b.released {
		panic("streams: batch released twice")
	}
	b.released = true
	b.Times = b.Times[:0]
	b.Arrivals = b.Arrivals[:0]
	clear(b.Keys) // don't pin key strings across the pool
	b.Keys = b.Keys[:0]
	b.KIdx = b.KIdx[:0] // KDict/kdict survive, like the column dicts
	for i := range b.Cols {
		b.Cols[i].reset()
	}
	if b.pooled {
		liveBatches.Add(-1)
		poolFor(b.Type, b.Source).Put(b)
	}
}

func (b *Batch) check() {
	if b.released {
		panic("streams: batch used after Release")
	}
}

// Len returns the number of rows.
func (b *Batch) Len() int { return len(b.Times) }

// Append adds the core row fields: occurrence time, arrival time and
// entity key. Pass arrival < 0 to omit the arrival column (the first
// append decides; mixing panics via the length check in Check).
func (b *Batch) Append(t, arrival int64, key string) {
	b.check()
	b.Times = append(b.Times, t)
	if arrival >= 0 {
		b.Arrivals = append(b.Arrivals, arrival)
	}
	b.Keys = append(b.Keys, key)
	id, ok := b.kdict[key]
	if !ok {
		if b.kdict == nil {
			b.kdict = make(map[string]uint32, 16)
		}
		id = uint32(len(b.KDict))
		b.KDict = append(b.KDict, key)
		b.kdict[key] = id
	}
	b.KIdx = append(b.KIdx, id)
}

// Grow makes room for n more rows in the row slices and in every column
// the batch has so far, so a producer that knows how many rows a batch
// will take appends them without regrowing each slice as it fills.
func (b *Batch) Grow(n int) {
	b.check()
	b.Times = slices.Grow(b.Times, n)
	b.Arrivals = slices.Grow(b.Arrivals, n)
	b.Keys = slices.Grow(b.Keys, n)
	b.KIdx = slices.Grow(b.KIdx, n)
	for i := range b.Cols {
		c := &b.Cols[i]
		switch c.Kind {
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

// col finds the named column, creating it with the given kind on first
// use. Producers must append one value per row to every column they
// ever name in the batch.
func (b *Batch) col(name string, kind ColKind) *Col {
	for i := range b.Cols {
		if b.Cols[i].Name == name {
			return &b.Cols[i]
		}
	}
	b.Cols = append(b.Cols, Col{Name: name, Kind: kind})
	return &b.Cols[len(b.Cols)-1]
}

// FloatCol returns the named float column, creating it if absent.
func (b *Batch) FloatCol(name string) *Col { return b.col(name, ColFloat) }

// IntCol returns the named int column, creating it if absent.
func (b *Batch) IntCol(name string) *Col { return b.col(name, ColInt) }

// BoolCol returns the named bool column, creating it if absent.
func (b *Batch) BoolCol(name string) *Col { return b.col(name, ColBool) }

// StrCol returns the named string column, creating it if absent.
func (b *Batch) StrCol(name string) *Col { return b.col(name, ColStr) }

// Col returns the named column, or nil.
func (b *Batch) Col(name string) *Col {
	for i := range b.Cols {
		if b.Cols[i].Name == name {
			return &b.Cols[i]
		}
	}
	return nil
}

// Check verifies the row-length invariant: every column (and the
// optional arrival slice) has exactly one entry per row.
func (b *Batch) Check() error {
	n := b.Len()
	if len(b.Keys) != n {
		return fmt.Errorf("streams: batch %q has %d keys for %d rows", b.Type, len(b.Keys), n)
	}
	if b.Arrivals != nil && len(b.Arrivals) != n {
		return fmt.Errorf("streams: batch %q has %d arrivals for %d rows", b.Type, len(b.Arrivals), n)
	}
	if b.KIdx != nil && len(b.KIdx) != n {
		return fmt.Errorf("streams: batch %q has %d key indexes for %d rows", b.Type, len(b.KIdx), n)
	}
	for _, id := range b.KIdx {
		if int(id) >= len(b.KDict) {
			return fmt.Errorf("streams: batch %q key index %d outside dictionary of %d", b.Type, id, len(b.KDict))
		}
	}
	for i := range b.Cols {
		if got := b.Cols[i].Len(); got != n {
			return fmt.Errorf("streams: batch %q column %q has %d values for %d rows",
				b.Type, b.Cols[i].Name, got, n)
		}
	}
	return nil
}

// AppendRowFrom copies row i of src (which must share b's schema or
// extend it) onto the end of b. The batch-path row copy: no maps, no
// boxing, string values re-interned through the dictionary.
func (b *Batch) AppendRowFrom(src *Batch, i int) {
	b.check()
	src.check()
	b.Times = append(b.Times, src.Times[i])
	if src.Arrivals != nil {
		b.Arrivals = append(b.Arrivals, src.Arrivals[i])
	}
	key := src.Keys[i]
	b.Keys = append(b.Keys, key)
	id, ok := b.kdict[key]
	if !ok {
		if b.kdict == nil {
			b.kdict = make(map[string]uint32, 16)
		}
		id = uint32(len(b.KDict))
		b.KDict = append(b.KDict, key)
		b.kdict[key] = id
	}
	b.KIdx = append(b.KIdx, id)
	for ci := range src.Cols {
		sc := &src.Cols[ci]
		dc := b.col(sc.Name, sc.Kind)
		switch sc.Kind {
		case ColFloat:
			dc.F = append(dc.F, sc.F[i])
		case ColInt:
			dc.I = append(dc.I, sc.I[i])
		case ColBool:
			dc.B = append(dc.B, sc.B[i])
		default:
			dc.AppendStr(sc.Dict[sc.SIdx[i]])
		}
	}
}

// ItemAt materializes row i as a plain Item — the lazy compatibility
// view handed to processors that are not batch-aware. The row lands
// under the reserved names (RowType, RowTime, RowArrival, RowKey,
// RowSource) plus one entry per column. The item copies every value;
// it stays valid after the batch is released.
func (b *Batch) ItemAt(i int) Item {
	b.check()
	it := make(Item, len(b.Cols)+5)
	it[RowType] = b.Type
	if b.Source != "" {
		it[RowSource] = b.Source
	}
	it[RowTime] = b.Times[i]
	if b.Arrivals != nil {
		it[RowArrival] = b.Arrivals[i]
	}
	it[RowKey] = b.Keys[i]
	for ci := range b.Cols {
		c := &b.Cols[ci]
		it[c.Name] = c.Value(i)
	}
	return it
}

// BatchProcessor is the batch-aware extension of Processor: a
// processor implementing it receives whole batches instead of having
// the chain expand them row by row. ProcessBatch may return any number
// of items (reports, pass-through envelopes, nothing); each output is
// piped through the rest of the chain. Ownership of the batch
// transfers with the call: the implementation either forwards the
// envelope downstream or consumes the rows and calls Release.
type BatchProcessor interface {
	ProcessBatch(*Batch) ([]Item, error)
}
