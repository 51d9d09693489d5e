package rtec

import (
	"sort"
	"sync"

	"github.com/insight-dublin/insight/interval"
)

// List is the maximal-interval list type (alias of interval.List).
type List = interval.List

// Span is a half-open time span (alias of interval.Span).
type Span = interval.Span

// Context is the window snapshot a rule evaluates against. It exposes
// the SDEs and lower-stratum derived events inside the working memory,
// and the maximal intervals of lower-stratum fluents. Lookups outside
// the window return no data, mirroring RTEC's discarding of SDEs that
// took place before or on Q−WM.
//
// SDE lookups are zero-copy views over the engine's time-indexed event
// store; derived events are filed by the engine as strata complete.
// During incremental evaluation the engine hands rules a context whose
// event visibility is narrowed to the region being recomputed (view);
// fluent lookups are never narrowed — interval lists always cover the
// whole window.
//
// A Context is safe for concurrent readers; the engine only writes to
// it at stratum barriers.
//
// The interval lists returned by Intervals and friends may extend to
// the end of the window horizon for fluents that are still open at the
// query time; they are clipped in the engine's Result.
type Context struct {
	window Span // [Q-WM+1, Q+1)
	q      Time
	view   Span // event visibility, ⊆ [Q-WM+1, Q+1); normally the full window

	store   sdeStore                  // SDE buckets (read-only during a query); may be nil
	derived map[string]*derivedEvents // derived events by type
	fluents map[string]map[KV]List    // name -> instance -> maximal intervals
}

// derivedEvents is one derived type's events for the current query,
// sorted by (time, key). No library rule reads a derived type by key,
// so the per-key index is built by the first lookup that wants it;
// rules of one stratum run concurrently, hence the Once.
type derivedEvents struct {
	evs       []Event
	keyedOnce sync.Once
	keyed     map[string][]Event // key -> time-sorted events
}

func (d *derivedEvents) byKey() map[string][]Event {
	d.keyedOnce.Do(func() {
		d.keyed = make(map[string][]Event)
		for _, e := range d.evs {
			d.keyed[e.Key] = append(d.keyed[e.Key], e)
		}
	})
	return d.keyed
}

// Rows is a zero-copy window view: the time-sorted events of one type
// (or one type and key) inside the window, iterable without
// materializing Event values. Over the row store it wraps the shared
// event slice; over the column store it wraps the resident segment
// plus a row-id sub-slice, and At builds the lightweight column view
// on demand — rules that only need times, keys or single attributes
// never pay for an Event at all.
//
// A Rows view is valid for the duration of the query that produced it;
// do not retain it across queries (eviction and compaction may reuse
// the underlying storage).
type Rows struct {
	evs []Event // row store and derived events
	seg *colSeg // column store; nil when evs is the backing
	ids []int32 // row ids into seg, (time, arrival)-sorted
}

// Len returns the number of events in the view.
func (r Rows) Len() int {
	if r.seg != nil {
		return len(r.ids)
	}
	return len(r.evs)
}

// At returns the i-th event in (time, arrival) order.
func (r Rows) At(i int) Event {
	if r.seg != nil {
		return r.seg.blk.Event(int(r.ids[i]))
	}
	return r.evs[i]
}

// TimeAt returns the i-th event's occurrence time without
// materializing the event.
func (r Rows) TimeAt(i int) Time {
	if r.seg != nil {
		return Time(r.seg.blk.Times[r.ids[i]])
	}
	return r.evs[i].Time
}

// KeyAt returns the i-th event's entity key without materializing the
// event.
func (r Rows) KeyAt(i int) string {
	if r.seg != nil {
		return r.seg.blk.Key(int(r.ids[i]))
	}
	return r.evs[i].Key
}

// Slice materializes the view as an event slice. Over the row store
// this is the shared backing slice (zero-copy, do not modify); over
// the column store it allocates — columnar-aware rules should iterate
// the view instead.
func (r Rows) Slice() []Event {
	if r.seg == nil {
		return r.evs
	}
	out := make([]Event, len(r.ids))
	for i, id := range r.ids {
		out[i] = r.seg.blk.Event(int(id))
	}
	return out
}

func newContext(q Time, window Span) *Context {
	return &Context{
		q:       q,
		window:  window,
		view:    Span{Start: window.Start, End: q + 1},
		derived: make(map[string]*derivedEvents),
		fluents: make(map[string]map[KV]List),
	}
}

func newStoreContext(q Time, window Span, store sdeStore) *Context {
	c := newContext(q, window)
	c.store = store
	return c
}

// withView returns a shallow copy of the context whose event lookups
// are restricted to the given span (intersected with the window). The
// copy shares the underlying event and fluent data.
func (c *Context) withView(view Span) *Context {
	cc := *c
	cc.view = view.Intersect(c.view)
	return &cc
}

// Window returns the working-memory span [Q−WM+1, Q+1).
func (c *Context) Window() Span { return c.window }

// QueryTime returns the current query time Q.
func (c *Context) QueryTime() Time { return c.q }

// Rows returns the window view of an event type: the time-sorted
// occurrences inside the window, iterable without materializing
// events. This is the columnar-aware counterpart of Events.
func (c *Context) Rows(typ string) Rows {
	if d, ok := c.derived[typ]; ok {
		return Rows{evs: sliceSpan(d.evs, c.view)}
	}
	if c.store != nil {
		if b := c.store.bucket(typ); b != nil {
			return b.rows(c.view)
		}
	}
	return Rows{}
}

// RowsForKey is Rows restricted to one entity key.
func (c *Context) RowsForKey(typ, key string) Rows {
	if d, ok := c.derived[typ]; ok {
		return Rows{evs: sliceSpan(d.byKey()[key], c.view)}
	}
	if c.store != nil {
		if b := c.store.bucket(typ); b != nil {
			return b.rowsForKey(key, c.view)
		}
	}
	return Rows{}
}

// Events returns the time-sorted occurrences of an event type inside
// the window. The returned slice is shared; do not modify. Over the
// column store the slice is materialized per call — columnar-aware
// rules should use Rows instead.
func (c *Context) Events(typ string) []Event {
	return c.Rows(typ).Slice()
}

// EventsForKey returns the time-sorted occurrences of an event type
// for one entity key. The returned slice is shared; do not modify.
// Over the column store the slice is materialized per call —
// columnar-aware rules should use RowsForKey instead.
func (c *Context) EventsForKey(typ, key string) []Event {
	return c.RowsForKey(typ, key).Slice()
}

// EventKeys returns the distinct entity keys that have occurrences of
// the event type inside the window, sorted: rule derivation iterates
// these keys while appending transitions and derived events, so the
// order must be run-stable for recognition output to be
// deterministic.
func (c *Context) EventKeys(typ string) []string {
	if d, ok := c.derived[typ]; ok {
		var out []string
		for k, evs := range d.byKey() {
			if len(sliceSpan(evs, c.view)) > 0 {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	if c.store != nil {
		if b := c.store.bucket(typ); b != nil {
			return b.keysInSpan(c.view)
		}
	}
	return nil
}

// Intervals returns holdsFor(Fluent(Key) = true, I): the maximal
// intervals of a boolean fluent instance.
func (c *Context) Intervals(fluent, key string) List {
	return c.IntervalsValue(fluent, key, TrueValue)
}

// IntervalsValue returns holdsFor(Fluent(Key) = Value, I).
func (c *Context) IntervalsValue(fluent, key, value string) List {
	m := c.fluents[fluent]
	if m == nil {
		return nil
	}
	return m[KV{Key: key, Value: value}]
}

// FluentInstances returns every (Key, Value) instance of a fluent that
// has at least one maximal interval in the window, with its intervals.
// The returned map is shared; do not modify.
func (c *Context) FluentInstances(fluent string) map[KV]List {
	return c.fluents[fluent]
}

// HoldsAt reports holdsAt(Fluent(Key) = true, T).
func (c *Context) HoldsAt(fluent, key string, t Time) bool {
	return c.IntervalsValue(fluent, key, TrueValue).Contains(t)
}

// HoldsAtValue reports holdsAt(Fluent(Key) = Value, T).
func (c *Context) HoldsAtValue(fluent, key, value string, t Time) bool {
	return c.IntervalsValue(fluent, key, value).Contains(t)
}

// ValueAt returns the value V for which holdsAt(Fluent(Key)=V, T), if
// any. Simple fluents hold at most one value at a time.
func (c *Context) ValueAt(fluent, key string, t Time) (string, bool) {
	for kv, l := range c.fluents[fluent] {
		if kv.Key == key && l.Contains(t) {
			return kv.Value, true
		}
	}
	return "", false
}

// addEvents files one derived type's events, already in sortEvents
// order, so higher strata can read them. Events must be added before
// the stratum that reads them is evaluated; the engine guarantees this
// ordering (strata are barriers).
func (c *Context) addEvents(typ string, events []Event) {
	if len(events) == 0 {
		return
	}
	c.derived[typ] = &derivedEvents{evs: events}
}

func (c *Context) setFluent(name string, instances map[KV]List) {
	c.fluents[name] = instances
}
