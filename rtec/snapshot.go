package rtec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/insight-dublin/insight/interval"
)

// Engine snapshots. A snapshot captures everything a Query's outcome
// depends on besides the definitions and options: the SDE store, the
// inertia seed (prev), the Fresh dedup set (seen) and the query clock.
// Restoring it into a fresh engine with the same definitions and
// options makes every subsequent Query bit-identical to the original
// engine's — the checkpointed-recovery contract the durable pipeline
// is built on.
//
// The incremental splice cache is deliberately not captured: a
// restored engine starts cold and recomputes its first window in full,
// which the PR 1 equivalence harness pins to the incremental path's
// output bit for bit. That keeps snapshots small and their format
// independent of per-rule cache internals.
//
// Every slice in a snapshot is deterministically ordered (types and
// fluents by name, instances by key/value, seen entries by
// type/key/time, events in store order), so identical engine states
// produce identical snapshots — which is what lets the chaos harness
// compare checkpoints across runs byte for byte.

// TypeSnapshot is one SDE type's store bucket in the canonical columnar
// form every store implementation hands out and takes back: the live
// rows only, in store order (time-sorted, arrival-stable), so neither
// compaction history nor dead dictionary entries ever show.
type TypeSnapshot struct {
	LateMin Time
	// Rows holds the bucket's rows column-wise. Keys is nil — entity
	// keys are dictionary-encoded through KIdx/KDict, the dictionary in
	// first-use order; Cols are sorted by name, string dictionaries in
	// first-use order, a Present mask exists only where some row lacks
	// the attribute, and a boxed (ColAny) column only where the rows'
	// values really mix types.
	Rows Block
}

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
	Types   []TypeSnapshot
	Prev    []FluentSnapshot
	Seen    []SeenEntry
}

// Snapshot captures the engine's restorable state. The engine is not
// mutated; take snapshots between Query calls (the pipeline does so at
// window boundaries), never concurrently with Input or Query.
func (e *Engine) Snapshot() (*EngineSnapshot, error) {
	s := &EngineSnapshot{LastQ: e.lastQ, Started: e.started}

	// The store hands its rows out in the canonical columnar form:
	// identical engine states produce identical snapshots whichever
	// store implementation is configured, so a checkpoint written by a
	// row-store engine restores into a column-store one (and vice
	// versa) bit-identically.
	types, err := e.store.snapshotTypes()
	if err != nil {
		return nil, err
	}
	s.Types = types

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
	var buf [128]byte
	b := buf[:0]
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
			return fmt.Sprintf("!attribute %q has unsupported type %T", name, v)
		}
		b = append(b, 0x1e)
	}
	return string(b)
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
	}
	return b, false
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
// rendering is only paid when there is a choice to make.
func CanonicalSurvivor(same []Event) int {
	best := 0
	if len(same) == 1 {
		return best
	}
	bestAttrs := CanonicalAttrs(same[0])
	for i := 1; i < len(same); i++ {
		if c := CanonicalAttrs(same[i]); c < bestAttrs {
			best, bestAttrs = i, c
		}
	}
	return best
}

// Restore replaces the engine's state with a snapshot's. The engine
// must have been built with the same definitions and options as the
// snapshotted one; SDE types the definitions don't declare are
// rejected. All previous state — store, inertia, dedup set, splice
// caches — is discarded.
func (e *Engine) Restore(s *EngineSnapshot) error {
	// The rebuilt store is whatever kind the restoring engine is
	// configured with — snapshots are store-representation-independent,
	// so a checkpoint migrates between store kinds transparently.
	store := newSDEStore(e.opts.Store)
	restored := make(map[string]bool, len(s.Types))
	for i := range s.Types {
		ts := &s.Types[i]
		typ := ts.Rows.Type
		if !e.defs.IsSDE(typ) {
			return fmt.Errorf("rtec: snapshot type %q was not declared as an SDE", typ)
		}
		if restored[typ] {
			return fmt.Errorf("rtec: duplicate snapshot type %q", typ)
		}
		restored[typ] = true
		if err := ts.Rows.validate(); err != nil {
			return err
		}
		store.restoreType(ts)
	}

	prev := make(map[string]map[KV]List, len(s.Prev))
	for _, fs := range s.Prev {
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

	e.store = store
	e.prev = prev
	e.seen.Restore(s.Seen)
	e.cache = make(map[string]*ruleCache) // cold: first query recomputes in full
	e.lastQ = s.LastQ
	e.started = s.Started
	return nil
}

// MoveRows moves the rows of one SDE type whose entity key satisfies
// moved out of s and into dst — the row half of migrating keys between
// two engines' snapshots. The moved rows merge into dst's bucket in
// time order, dst's own rows first on ties, through the column store's
// order merge; dst's dirty watermark takes the earlier of the two
// buckets' (conservative: the restored engine starts cold anyway).
func (s *EngineSnapshot) MoveRows(dst *EngineSnapshot, typ string, moved func(key string) bool) error {
	from := s.typeIndex(typ)
	if from < 0 {
		return nil
	}
	src := &s.Types[from]
	if err := src.Rows.validate(); err != nil {
		return err
	}
	// One predicate call per dictionary entry, not per row.
	goes := make([]bool, len(src.Rows.KDict))
	for k, key := range src.Rows.KDict {
		goes[k] = moved(key)
	}
	var stay, gone []int32
	for i, kid := range src.Rows.KIdx {
		if goes[kid] {
			gone = append(gone, int32(i))
		} else {
			stay = append(stay, int32(i))
		}
	}
	if len(gone) == 0 {
		return nil
	}
	goneRows, err := gatherRows(&src.Rows, gone)
	if err != nil {
		return err
	}
	stayRows, err := gatherRows(&src.Rows, stay)
	if err != nil {
		return err
	}

	scratch := newColumnStore()
	lateMin := src.LateMin
	to := dst.typeIndex(typ)
	if to >= 0 {
		if err := dst.Types[to].Rows.validate(); err != nil {
			return err
		}
		scratch.restoreType(&dst.Types[to])
		if dst.Types[to].LateMin < lateMin {
			lateMin = dst.Types[to].LateMin
		}
	}
	scratch.insertRows(&goneRows, identityRows(len(gone)), false, 0)
	scratch.bucketOf(typ).lateMin = lateMin
	merged, err := scratch.snapshotTypes()
	if err != nil {
		return err
	}
	src.Rows = stayRows
	if to >= 0 {
		dst.Types[to] = merged[0]
	} else {
		dst.Types = append(dst.Types, merged[0])
	}
	return nil
}

func (s *EngineSnapshot) typeIndex(typ string) int {
	for i := range s.Types {
		if s.Types[i].Rows.Type == typ {
			return i
		}
	}
	return -1
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
