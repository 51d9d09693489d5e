package dublin

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// Columnar emission. CollectBatches is the batched counterpart of
// Collect: the generator's raw events are appended straight into
// typed transport batches — occurrence/arrival times, entity keys and
// numeric attributes land in flat slices, the categorical labels
// (lines, operators, intersections, approaches) in per-column string
// dictionaries — without ever materializing an attribute map. The
// per-item and columnar emissions draw from the same rng in the same
// order, so row i of the batched stream is bit-identical to the i-th
// SDE of the corresponding per-item stream.

// BatchedStream couples an input stream id with its arrival-ordered
// transport batches.
type BatchedStream struct {
	ID      string
	Batches []*streams.Batch
}

// CollectBatches materializes the SDEs of [from, until) as columnar
// transport batches, split into the paper's five input streams ("bus"
// plus one SCATS stream per Dublin region) with rows in arrival order
// within each stream. Batches are cut at maxRows rows (default 512
// when <= 0) and whenever a batch would span more than maxSpan of
// arrival time (0 disables the span cut) — the span cap is what lets
// downstream watermark punctuation stay fine-grained under batching.
// The batches come from the transport pool: the consumer releases
// them.
func (c *City) CollectBatches(from, until rtec.Time, maxRows int, maxSpan rtec.Time) []BatchedStream {
	g := c.Stream(from, until)
	sb := newStreamBatcher(maxRows, maxSpan)
	// The same arrival order, and the same drain, as Collect.
	g.drain(func(r rawSDE) {
		si, typ := 0, traffic.MoveType
		if r.kind == 1 {
			si, typ = 1+int(geo.RegionOf(c.sensors[r.index].Pos)), traffic.TrafficType
		}
		g.appendRaw(sb.rowBatch(si, typ, r.arrival), r)
	})
	return sb.finish()
}

// streamBatcher cuts arrival-ordered rows into the five input streams'
// transport batches: stream 0 is "bus", stream 1+r the SCATS stream of
// region r. Both producers — the generator (CollectBatches) and the
// recorded-stream converter (BatchSDEs) — cut through it, so a replayed
// recording is batched exactly like the live collection.
type streamBatcher struct {
	maxRows int
	maxSpan rtec.Time
	out     []BatchedStream
	open    []*streams.Batch
	first   []rtec.Time // arrival of each open batch's first row
}

func newStreamBatcher(maxRows int, maxSpan rtec.Time) *streamBatcher {
	if maxRows <= 0 {
		maxRows = 512
	}
	sb := &streamBatcher{maxRows: maxRows, maxSpan: maxSpan, out: []BatchedStream{{ID: "bus"}}}
	for r := 0; r < int(geo.NumRegions); r++ {
		sb.out = append(sb.out, BatchedStream{ID: "scats-" + geo.Region(r).String()})
	}
	sb.open = make([]*streams.Batch, len(sb.out))
	sb.first = make([]rtec.Time, len(sb.out))
	return sb
}

// rowBatch returns the batch the next row of stream si belongs in,
// closing the open one first when the row would overflow maxRows or
// stretch it past maxSpan of arrival time.
func (sb *streamBatcher) rowBatch(si int, typ string, arrival rtec.Time) *streams.Batch {
	if b := sb.open[si]; b != nil &&
		(b.Len() >= sb.maxRows || (sb.maxSpan > 0 && arrival-sb.first[si] > sb.maxSpan)) {
		sb.cut(si)
	}
	if sb.open[si] == nil {
		sb.open[si] = streams.GetBatch(typ, sb.out[si].ID)
		sb.first[si] = arrival
	} else if sb.open[si].Len() == 1 {
		// The first row laid out the columns: size them all for a full
		// cut now. Grown row by row, a batch allocates its bytes twice
		// over, and over a whole collection that garbage is as large as
		// the stream.
		sb.open[si].Grow(sb.maxRows - 1)
	}
	return sb.open[si]
}

// cut closes stream si's open batch, if any.
func (sb *streamBatcher) cut(si int) {
	if b := sb.open[si]; b != nil {
		sb.out[si].Batches = append(sb.out[si].Batches, b)
		sb.open[si] = nil
	}
}

// finish closes every open batch and returns the streams.
func (sb *streamBatcher) finish() []BatchedStream {
	for si := range sb.open {
		sb.cut(si)
	}
	return sb.out
}

// release returns every batch cut so far to the transport pool: the
// error path of a producer that cannot finish.
func (sb *streamBatcher) release() {
	for _, bs := range sb.finish() {
		for _, b := range bs.Batches {
			b.Release()
		}
	}
}

// sdeCol is one attribute column of an SDE type's transport schema.
type sdeCol struct {
	name string
	kind streams.ColKind
}

// sdeSchemas lists, per SDE type, the attribute columns in the order
// appendRaw writes them — the contract a recorded SDE must meet to
// travel as a batch row.
var sdeSchemas = map[string][]sdeCol{
	traffic.MoveType: {
		{"line", streams.ColStr}, {"operator", streams.ColStr}, {"delay", streams.ColInt},
		{"lon", streams.ColFloat}, {"lat", streams.ColFloat},
		{"direction", streams.ColInt}, {"congested", streams.ColBool},
	},
	traffic.TrafficType: {
		{"intersection", streams.ColStr}, {"approach", streams.ColStr},
		{"density", streams.ColFloat}, {"flow", streams.ColFloat},
		{"lon", streams.ColFloat}, {"lat", streams.ColFloat},
	},
}

// colGoType names the Go type a recorded attribute must hold per column
// kind.
var colGoType = [...]string{streams.ColFloat: "float64", streams.ColInt: "int64", streams.ColBool: "bool", streams.ColStr: "string"}

// BatchSDEs converts a recorded SDE stream — Collect output, a CSV
// read-back, in any order — into the transport batches CollectBatches
// would have emitted for it: the five input streams, rows in (stable)
// arrival order, cut at maxRows rows and maxSpan of arrival time. It is
// the one place a map-backed SDE becomes a batch row, and it refuses
// what the columnar schema cannot carry: an event type that is neither
// move nor traffic, a missing attribute, an attribute outside the
// type's schema, or a value of the wrong kind (a slice or map above
// all). On error nothing is retained; on success the consumer releases
// the batches.
func BatchSDEs(sdes []SDE, maxRows int, maxSpan rtec.Time) ([]BatchedStream, error) {
	// Sort a permutation, and only when needed: Collect output and CSV
	// files are already in arrival order.
	var order []int32
	if !slices.IsSortedFunc(sdes, func(a, b SDE) int { return cmp.Compare(a.Arrival, b.Arrival) }) {
		order = make([]int32, len(sdes))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortStableFunc(order, func(i, j int32) int { return cmp.Compare(sdes[i].Arrival, sdes[j].Arrival) })
	}
	sb := newStreamBatcher(maxRows, maxSpan)
	for n := range sdes {
		i := n
		if order != nil {
			i = int(order[n])
		}
		if err := sb.appendSDE(&sdes[i]); err != nil {
			sb.release()
			return nil, fmt.Errorf("dublin: recorded SDE %d: %w", i, err)
		}
	}
	return sb.finish(), nil
}

// appendSDE validates one recorded SDE against its type's schema and
// appends it to its stream's open batch. Validation completes before
// the first cell is written, so a rejected SDE leaves no ragged row.
func (sb *streamBatcher) appendSDE(sde *SDE) error {
	ev := &sde.Event
	schema, known := sdeSchemas[ev.Type]
	if !known {
		return fmt.Errorf("unknown event type %q (want %s or %s)", ev.Type, traffic.MoveType, traffic.TrafficType)
	}
	if sde.Arrival < 0 {
		return fmt.Errorf("%v: negative arrival time %d", ev, int64(sde.Arrival))
	}
	var vals [8]any // widest schema: move, 7 columns
	for ci, c := range schema {
		v, ok := ev.Get(c.name)
		if !ok {
			return fmt.Errorf("%v: missing attribute %q", ev, c.name)
		}
		switch v.(type) {
		case float64:
			ok = c.kind == streams.ColFloat
		case int64:
			ok = c.kind == streams.ColInt
		case bool:
			ok = c.kind == streams.ColBool
		case string:
			ok = c.kind == streams.ColStr
		default: // a slice, a map, a struct: nothing a column cell can hold
			ok = false
		}
		if !ok {
			return fmt.Errorf("%v: attribute %q holds a %T, want the scalar %s", ev, c.name, v, colGoType[c.kind])
		}
		vals[ci] = v
	}
	if len(ev.Attrs) > len(schema) {
		for name := range ev.Attrs {
			if !slices.ContainsFunc(schema, func(c sdeCol) bool { return c.name == name }) {
				return fmt.Errorf("%v: attribute %q is not part of the %s schema", ev, name, ev.Type)
			}
		}
	}
	si := 0
	if ev.Type == traffic.TrafficType {
		si = 1 + PartitionOf(*ev)
	}
	b := sb.rowBatch(si, ev.Type, sde.Arrival)
	b.Append(int64(ev.Time), int64(sde.Arrival), ev.Key)
	for ci, c := range schema {
		switch c.kind {
		case streams.ColFloat:
			b.FloatCol(c.name).AppendFloat(vals[ci].(float64))
		case streams.ColInt:
			b.IntCol(c.name).AppendInt(vals[ci].(int64))
		case streams.ColBool:
			b.BoolCol(c.name).AppendBool(vals[ci].(bool))
		default:
			b.StrCol(c.name).AppendStr(vals[ci].(string))
		}
	}
	return nil
}

// appendRaw appends one raw event as a batch row, columns named and
// typed exactly like the attribute map of the materialized event.
func (g *Generator) appendRaw(b *streams.Batch, r rawSDE) {
	if r.kind == 0 {
		bus := &g.city.buses[r.index]
		b.Append(int64(r.t), int64(r.arrival), bus.ID)
		b.StrCol("line").AppendStr(bus.Line)
		b.StrCol("operator").AppendStr(bus.Operator)
		b.IntCol("delay").AppendInt(r.delay)
		b.FloatCol("lon").AppendFloat(r.pos.Lon)
		b.FloatCol("lat").AppendFloat(r.pos.Lat)
		b.IntCol("direction").AppendInt(int64(r.direction))
		b.BoolCol("congested").AppendBool(r.congested)
		return
	}
	s := &g.city.sensors[r.index]
	b.Append(int64(r.t), int64(r.arrival), s.ID)
	b.StrCol("intersection").AppendStr(s.Intersection)
	b.StrCol("approach").AppendStr(s.Approach)
	b.FloatCol("density").AppendFloat(r.density)
	b.FloatCol("flow").AppendFloat(r.flow)
	b.FloatCol("lon").AppendFloat(s.Pos.Lon)
	b.FloatCol("lat").AppendFloat(s.Pos.Lat)
}

// Block converts a transport batch into an rtec ingestion block. The
// two columnar layouts are deliberately aligned, so the conversion
// aliases the batch's slices instead of copying: the returned block is
// valid only while the batch is live (the engine copies the rows it
// admits, so handing an aliased block to InputBlock is safe).
func Block(b *streams.Batch) *rtec.Block {
	blk := &rtec.Block{
		Type:  b.Type,
		Times: b.Times,
		Keys:  b.Keys,
		KIdx:  b.KIdx,
		KDict: b.KDict,
		Cols:  make([]rtec.BCol, len(b.Cols)),
	}
	for i := range b.Cols {
		sc := &b.Cols[i]
		dc := &blk.Cols[i]
		dc.Name = sc.Name
		switch sc.Kind {
		case streams.ColFloat:
			dc.Kind, dc.F = rtec.ColFloat, sc.F
		case streams.ColInt:
			dc.Kind, dc.I = rtec.ColInt, sc.I
		case streams.ColBool:
			dc.Kind, dc.B = rtec.ColBool, sc.B
		case streams.ColStr:
			dc.Kind, dc.SIdx, dc.Dict = rtec.ColStr, sc.SIdx, sc.Dict
		}
	}
	return blk
}
