package rtec

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/insight-dublin/insight/interval"
)

// Engine snapshots. A snapshot captures what a Query's outcome depends
// on besides the definitions, the options and the SDEs in the working
// memory: the inertia seed (prev), the Fresh dedup set (seen) and the
// query clock. The working memory itself is not captured: it is a
// function of the SDE stream — the SDEs that arrived by the last query
// time and occurred in (LastQ−WM, LastQ] — so a restoring engine gets it
// back by having those SDEs input again, which the durable pipeline does
// from its write-ahead log. Restoring a snapshot into a fresh engine
// with the same definitions and options and re-inputting that window
// makes every subsequent Query bit-identical to the original engine's —
// the checkpointed-recovery contract the durable pipeline is built on.
//
// The incremental splice cache is deliberately not captured: a
// restored engine starts cold and recomputes its first window in full,
// which the incremental-vs-full equivalence tests pin to the
// incremental path's output bit for bit. That keeps snapshots small and
// their format independent of per-rule cache internals.
//
// Every slice in a snapshot is deterministically ordered (fluents by
// name, instances by key/value, seen entries by type/key/time), so
// identical engine states produce identical snapshots.

// InstanceSnapshot is one fluent instance's un-clipped maximal
// intervals from the last query (the law-of-inertia seed).
type InstanceSnapshot struct {
	Key   string
	Value string
	Spans interval.List
}

// FluentSnapshot is one simple fluent's inertia state.
type FluentSnapshot struct {
	Name      string
	Instances []InstanceSnapshot
}

// SeenEntry is one derived-event identity already reported by an
// earlier query (the Result.Fresh dedup set).
type SeenEntry struct {
	Type string
	Key  string
	Time Time
}

// Compare orders dedup entries by (type, key, time) — the canonical
// snapshot order.
func (a SeenEntry) Compare(b SeenEntry) int {
	if c := strings.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Time, b.Time)
}

// EngineSnapshot is the restorable state of one Engine.
type EngineSnapshot struct {
	LastQ   Time
	Started bool
	Prev    []FluentSnapshot
	Seen    []SeenEntry
}

// Snapshot captures the engine's restorable state. The engine is not
// mutated; take snapshots between Query calls (the pipeline does so at
// window boundaries), never concurrently with Input or Query. The error
// is always nil.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	s := &EngineSnapshot{LastQ: e.lastQ, Started: e.started}
	fluents := make([]string, 0, len(e.prev))
	for name := range e.prev {
		fluents = append(fluents, name)
	}
	slices.Sort(fluents)
	for _, name := range fluents {
		fs := FluentSnapshot{Name: name}
		for kv, l := range e.prev[name] {
			fs.Instances = append(fs.Instances, InstanceSnapshot{
				Key: kv.Key, Value: kv.Value, Spans: l.Clone(),
			})
		}
		slices.SortFunc(fs.Instances, func(a, b InstanceSnapshot) int {
			return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
		})
		s.Prev = append(s.Prev, fs)
	}

	s.Seen = e.seen.Entries()
	return s, nil
}

// CanonicalAttrs renders an event's attributes in a canonical,
// representation-independent form: name-sorted, each value tagged with
// its kind, floats by their exact bit pattern. Two events carry the
// same attributes — whether map-backed or columnar views — exactly
// when their renderings are equal, and the rendering is totally
// ordered, which is what the Fresh dedup paths (engine-local and
// cross-shard) use to pick one deterministic survivor among derived
// events sharing an identity. Events with unsupported attribute types
// cannot be snapshotted either; they render with an error marker and
// still compare deterministically.
func CanonicalAttrs(ev Event) string {
	var buf [128]byte
	return string(appendCanonicalAttrs(buf[:0], ev))
}

// appendCanonicalAttrs appends CanonicalAttrs(ev) to b.
func appendCanonicalAttrs(b []byte, ev Event) []byte {
	var nameBuf [8]string
	names := nameBuf[:0]
	for name := range ev.Attrs {
		names = append(names, name)
	}
	if ev.blk != nil {
		for ci := range ev.blk.Cols {
			if c := &ev.blk.Cols[ci]; c.present(int(ev.row)) {
				names = append(names, c.Name)
			}
		}
	}
	slices.Sort(names)
	start := len(b)
	for _, name := range names {
		b = append(append(b, name...), 0)
		var ok bool
		if ev.blk != nil {
			b, ok = appendCanonicalCell(b, ev.blk.Column(name), int(ev.row))
		} else {
			b, ok = appendCanonicalValue(b, ev.Attrs[name])
		}
		if !ok {
			v, _ := ev.Get(name)
			return fmt.Appendf(b[:start], "!attribute %q has unsupported type %T", name, v)
		}
		b = append(b, 0x1e)
	}
	return b
}

// appendCanonicalCell renders one present block cell; packed cells
// render straight from their column, without boxing.
func appendCanonicalCell(b []byte, c *BCol, row int) ([]byte, bool) {
	switch c.Kind {
	case ColFloat:
		return appendCanonicalFloat(b, c.F[row]), true
	case ColInt:
		return strconv.AppendInt(append(b, "i:"...), c.I[row], 10), true
	case ColIntGo:
		return strconv.AppendInt(append(b, "n:"...), int64(c.N[row]), 10), true
	case ColBool:
		return strconv.AppendBool(append(b, "b:"...), c.B[row]), true
	case ColStr:
		return append(append(b, "s:"...), c.Dict[c.SIdx[row]]...), true
	case ColIntList:
		return appendCanonicalList(b, c.list(row)), true
	}
	return appendCanonicalValue(b, c.A[row])
}

// appendCanonicalValue renders one boxed attribute value, or reports
// false for a type no column kind covers.
func appendCanonicalValue(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case float64:
		return appendCanonicalFloat(b, v), true
	case int64:
		return strconv.AppendInt(append(b, "i:"...), v, 10), true
	case int:
		return strconv.AppendInt(append(b, "n:"...), int64(v), 10), true
	case bool:
		return strconv.AppendBool(append(b, "b:"...), v), true
	case string:
		return append(append(b, "s:"...), v...), true
	case []int32:
		return appendCanonicalList(b, v), true
	}
	return b, false
}

// appendCanonicalList renders an int list as its comma-separated values.
func appendCanonicalList(b []byte, l []int32) []byte {
	b = append(b, "l:"...)
	for i, v := range l {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendCanonicalFloat renders a float by its exact bit pattern, as 16
// hex digits.
func appendCanonicalFloat(b []byte, v float64) []byte {
	const hex = "0123456789abcdef"
	b = append(b, "f:"...)
	bits := math.Float64bits(v)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[bits>>shift&0xf])
	}
	return b
}

// CanonicalSurvivor picks, among derivations of one identity (type,
// key, time), the one the Fresh dedup reports — the smallest
// CanonicalAttrs, the first of equals — and returns its index. The
// rendering is only paid when there is a choice to make, into two
// buffers reused across the candidates.
func CanonicalSurvivor(same []Event) int {
	best := 0
	if len(same) == 1 {
		return best
	}
	var bestBuf, candBuf [128]byte
	bestAttrs, cand := appendCanonicalAttrs(bestBuf[:0], same[0]), candBuf[:0]
	for i := 1; i < len(same); i++ {
		if cand = appendCanonicalAttrs(cand[:0], same[i]); bytes.Compare(cand, bestAttrs) < 0 {
			best, bestAttrs, cand = i, cand, bestAttrs
		}
	}
	return best
}

// Restore replaces the engine's state with a snapshot's. The engine
// must have been built with the same definitions and options as the
// snapshotted one; what a snapshot written under other definitions
// holds beyond them — the inertia of a fluent they do not fold, the
// identities of a type they do not output — is dropped. All previous
// state — store, inertia, dedup set, splice caches — is discarded, and
// the store is left empty: the caller re-inputs the SDEs that arrived
// by s.LastQ and occurred after s.LastQ−WM (Input and InputBlockRows
// drop anything older), in their original admission order.
func (e *Engine) Restore(s *EngineSnapshot) error {
	prev := make(map[string]map[KV]List, len(s.Prev))
	for _, fs := range s.Prev {
		if !e.defs.inert(fs.Name) {
			continue
		}
		if _, dup := prev[fs.Name]; dup {
			return fmt.Errorf("rtec: duplicate snapshot fluent %q", fs.Name)
		}
		m := make(map[KV]List, len(fs.Instances))
		for _, inst := range fs.Instances {
			if !inst.Spans.Valid() {
				return fmt.Errorf("rtec: snapshot fluent %q instance %s=%s has invalid intervals",
					fs.Name, inst.Key, inst.Value)
			}
			m[KV{Key: inst.Key, Value: inst.Value}] = inst.Spans.Clone()
		}
		prev[fs.Name] = m
	}

	e.store = newColumnStore()
	e.prev = prev
	e.seen.Restore(s.Seen, e.defs.outputs)
	e.cache = make(map[string]*ruleCache) // cold: first query recomputes in full
	e.lastQ = s.LastQ
	e.started = s.Started
	return nil
}

// Snapshot captures every partition's engine state, in partition
// order.
func (p *Partitioned) Snapshot() ([]*EngineSnapshot, error) {
	out := make([]*EngineSnapshot, len(p.engines))
	for i, e := range p.engines {
		s, err := e.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("rtec: partition %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Restore replaces every partition's engine state; snaps must hold one
// snapshot per partition, in partition order.
func (p *Partitioned) Restore(snaps []*EngineSnapshot) error {
	if len(snaps) != len(p.engines) {
		return fmt.Errorf("rtec: %d snapshots for %d partitions", len(snaps), len(p.engines))
	}
	for i, s := range snaps {
		if err := p.engines[i].Restore(s); err != nil {
			return fmt.Errorf("rtec: partition %d: %w", i, err)
		}
	}
	return nil
}
