package rtec

import "sort"

// sdeStore is the engine's working memory: the time-indexed SDE
// buckets a query window is extracted from. Two implementations
// exist — the row-resident eventStore (the original, retained as the
// equivalence reference) and the columnar-resident columnStore — and
// both maintain the exact same observable contract:
//
//   - per-type buckets ordered by (occurrence time, arrival), so the
//     order is unique and insertion strategy never shows;
//   - a per-key index whose per-key sub-sequences follow the same
//     order;
//   - the per-type "dirty watermark" (lateMin): the earliest
//     occurrence time among events that arrived at or before the last
//     query time, which the incremental evaluator consults through
//     dirtyFloor.
//
// Query-visible behaviour (window contents, key sets, dirty floors,
// snapshots) must be bit-identical across implementations; the
// randomized store-equivalence tests pin this.
type sdeStore interface {
	// insert files one event; late marks events landing at or before
	// the last query time.
	insert(ev Event, late bool)
	// insertRows files the given rows of a caller-owned block. The
	// rows must be time-sorted (ties in arrival order); the store
	// copies what it keeps, so the caller may recycle src afterwards.
	insertRows(src *Block, rows []int32, started bool, lastQ Time)
	// bucket returns the type's bucket view, or nil if the store holds
	// no events of the type.
	bucket(typ string) sdeBucket
	// evict permanently discards events with Time <= cutoff.
	evict(cutoff Time)
	dirtyFloor(sdeTypes map[string]bool) Time
	clearDirty()
	// residentBytes estimates the heap resident in the store's
	// long-lived structures (events, indexes, columns, dictionaries).
	// O(stored events); the engine only calls it under Profile.
	residentBytes() uint64
	// snapshotTypes hands out every bucket's live rows in the canonical
	// columnar snapshot form, types sorted by name — identical engine
	// states produce identical snapshots regardless of store
	// implementation.
	snapshotTypes() ([]TypeSnapshot, error)
	// restoreType rebuilds one bucket from its snapshot through the
	// bulk block path (the caller has validated the rows, the type and
	// its uniqueness). The store copies what it keeps.
	restoreType(ts *TypeSnapshot)
}

// sdeBucket is the read-only window view of one type's bucket.
type sdeBucket interface {
	// rows returns the events with occurrence time in span, as a
	// zero-copy view in (time, arrival) order.
	rows(span Span) Rows
	// rowsForKey is rows restricted to one entity key.
	rowsForKey(key string, span Span) Rows
	// keysInSpan returns the distinct entity keys with events in span,
	// sorted.
	keysInSpan(span Span) []string
	// countInSpan returns the number of events in span.
	countInSpan(span Span) int
}

// newSDEStore builds the store implementation opts.Store selects.
func newSDEStore(kind StoreKind) sdeStore {
	if kind == StoreRow {
		return newEventStore()
	}
	return newColumnStore()
}

// eventStore is the engine's time-indexed SDE store. Events are kept in
// per-type buckets sorted by occurrence time (ties in arrival order, so
// the ordering matches the engine's historical stable sort), with a
// parallel per-key index for the EventsForKey joins. Window extraction
// is a binary-search slice — no copying, no per-query re-sorting — and
// eviction is an amortised O(log n) prefix trim.
//
// The store also tracks, per type, the earliest occurrence time among
// events that arrived late (at or before the last query time) since
// that query: the "dirty watermark" the incremental evaluator consults
// to decide how much of a cached overlap result is still valid —
// everything the late region can influence must be recomputed, the
// rest is reusable.
type eventStore struct {
	types map[string]*typeEvents
	// mergeScratch is the reusable overlap buffer of mergeBlock;
	// kidCnt/kidEnd/kidOrder are the reusable per-key grouping buffers
	// of insertKeyGroups.
	mergeScratch []Event //state:transient reusable scratch
	kidCnt       []int32 //state:transient reusable scratch
	kidEnd       []int32 //state:transient reusable scratch
	kidOrder     []int32 //state:transient reusable scratch
}

type typeEvents struct {
	events []Event // time-sorted, arrival-stable
	// byKey indexes events per entity key, time-sorted.
	//state:derived rebuilt from events as they are filed
	byKey map[string][]Event
	// lateMin is the earliest occurrence time among events that
	// arrived at or before the engine's last query time, since that
	// query. MaxTime means no late arrivals.
	lateMin Time
}

func newEventStore() *eventStore {
	return &eventStore{types: make(map[string]*typeEvents)}
}

// bucket returns the type's bucket as an sdeBucket view; the untyped
// nil on a miss matters — returning a nil *typeEvents inside the
// interface would defeat the engine's nil checks.
func (s *eventStore) bucket(typ string) sdeBucket {
	b := s.types[typ]
	if b == nil {
		return nil
	}
	return b
}

// insert files an event, preserving time order (equal times keep
// arrival order). late marks events whose occurrence time is at or
// before the last query time — they land in a region earlier queries
// already evaluated.
func (s *eventStore) insert(ev Event, late bool) {
	b := s.types[ev.Type]
	if b == nil {
		b = &typeEvents{byKey: make(map[string][]Event), lateMin: MaxTime}
		s.types[ev.Type] = b
	}
	b.events = insertSorted(b.events, ev)
	b.byKey[ev.Key] = insertSorted(b.byKey[ev.Key], ev)
	if late && ev.Time < b.lateMin {
		b.lateMin = ev.Time
	}
}

// insertRows gathers the admitted rows into a block the store owns and
// bulk-files it. The key dictionary is only needed to group the
// insertion, so it is dropped afterwards — the long-lived owned block
// must not pin the caller's table.
func (s *eventStore) insertRows(src *Block, rows []int32, started bool, lastQ Time) {
	if len(rows) == 0 {
		return
	}
	owned := copyRows(src, rows)
	s.insertBlock(owned, started, lastQ)
	owned.KIdx, owned.KDict = nil, nil
}

// insertBlock files every row of an engine-owned block whose rows are
// time-sorted (ties in arrival order — the engine sorts admitted rows
// stably before gathering them). The resulting store state is exactly
// what row-by-row insert produces: the time-sorted, arrival-stable
// order of a bucket is unique, so insertion order never shows. Sorting
// first is what makes the type bucket cheap to maintain — one bulk
// merge per block instead of a binary search and an O(overlap) shift
// per row — and it turns the per-key appends into insertSorted's O(1)
// fast path, since each key's rows now arrive in time order.
func (s *eventStore) insertBlock(blk *Block, started bool, lastQ Time) {
	n := blk.Len()
	if n == 0 {
		return
	}
	b := s.types[blk.Type]
	if b == nil {
		b = &typeEvents{byKey: make(map[string][]Event), lateMin: MaxTime}
		s.types[blk.Type] = b
	}
	s.mergeBlock(b, blk)
	if blk.KIdx != nil {
		s.insertKeyGroups(b, blk)
	} else {
		for i := 0; i < n; i++ {
			// Inline insertSorted's fast path: the block's rows reach
			// each key in time order, so the per-key append almost
			// never needs the binary-search shift — and skipping the
			// call avoids copying the Event argument twice.
			key := blk.Keys[i]
			kb := b.byKey[key]
			if m := len(kb); m == 0 || kb[m-1].Time <= Time(blk.Times[i]) {
				b.byKey[key] = append(kb, blk.Event(i))
			} else {
				b.byKey[key] = insertSorted(kb, blk.Event(i))
			}
		}
	}
	if started {
		for i := 0; i < n; i++ {
			if t := Time(blk.Times[i]); t <= lastQ && t < b.lateMin {
				b.lateMin = t
			}
		}
	}
}

// insertKeyGroups files the block's rows into the per-key index using
// the key dictionary: rows are grouped by key id with a counting pass
// (no hashing), and the byKey map is touched once per distinct key
// instead of once per row. Row order is preserved within each group,
// so every key's sub-sequence arrives time-sorted and the resulting
// per-key slices are exactly what the per-row loop produces.
func (s *eventStore) insertKeyGroups(b *typeEvents, blk *Block) {
	n := blk.Len()
	nk := len(blk.KDict)
	cnt := resizeInt32(&s.kidCnt, nk)
	for _, kid := range blk.KIdx {
		cnt[kid]++
	}
	end := resizeInt32(&s.kidEnd, nk)
	sum := int32(0)
	for k, c := range cnt {
		sum += c
		end[k] = sum
	}
	order := resizeInt32(&s.kidOrder, n)
	for i := n - 1; i >= 0; i-- {
		kid := blk.KIdx[i]
		end[kid]--
		order[end[kid]] = int32(i)
	}
	// end[k] is now the start of group k; its length is cnt[k].
	for k := 0; k < nk; k++ {
		c := cnt[k]
		if c == 0 {
			continue
		}
		rows := order[end[k] : end[k]+c]
		kb := b.byKey[blk.KDict[k]]
		for _, i := range rows {
			if m := len(kb); m == 0 || kb[m-1].Time <= Time(blk.Times[i]) {
				kb = append(kb, blk.Event(int(i)))
			} else {
				kb = insertSorted(kb, blk.Event(int(i)))
			}
		}
		b.byKey[blk.KDict[k]] = kb
	}
}

// Scratch buffers are sized by the largest merge overlap or block ever
// seen; one oversized burst (a delayed region flushing at once) must
// not pin that high-water mark forever. Buffers above the floor that a
// use fills to less than a quarter of capacity are reallocated at
// twice the need — the next burst pays one allocation, steady state
// pays none.
const (
	scratchEventFloor = 1 << 10 // Events (~72 B each)
	scratchInt32Floor = 1 << 12 // int32 ids
)

// resizeInt32 sizes the reusable buffer to n zeroed entries, decaying
// oversized capacity left behind by an earlier burst.
func resizeInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n || (cap(*buf) > scratchInt32Floor && cap(*buf) > 4*n) {
		*buf = make([]int32, n, max(n, min(cap(*buf)/2, 2*n)))
		return *buf
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// mergeBlock merges the time-sorted rows of blk into the type bucket's
// time-sorted events. The common case — the block lands entirely after
// the stored events — is a pure bulk append; otherwise only the
// overlapping tail (mediator-delay jitter, typically a few dozen
// events) is re-merged, with existing events kept ahead of new ones on
// time ties to preserve arrival order.
func (s *eventStore) mergeBlock(b *typeEvents, blk *Block) {
	n := blk.Len()
	evs := b.events
	if len(evs) == 0 || evs[len(evs)-1].Time <= Time(blk.Times[0]) {
		base := len(evs)
		if need := base + n; need > cap(evs) {
			grown := make([]Event, base, max(need, 2*cap(evs)))
			copy(grown, evs)
			evs = grown
		}
		evs = evs[:base+n]
		for i := 0; i < n; i++ {
			evs[base+i] = blk.Event(i)
		}
		b.events = evs
		return
	}
	cut := sort.Search(len(evs), func(i int) bool { return evs[i].Time > Time(blk.Times[0]) })
	s.mergeScratch = append(s.mergeScratch[:0], evs[cut:]...)
	tail := s.mergeScratch
	evs = evs[:cut]
	i, j := 0, 0
	for i < len(tail) && j < n {
		if tail[i].Time <= Time(blk.Times[j]) {
			evs = append(evs, tail[i])
			i++
		} else {
			evs = append(evs, blk.Event(j))
			j++
		}
	}
	evs = append(evs, tail[i:]...)
	for ; j < n; j++ {
		evs = append(evs, blk.Event(j))
	}
	b.events = evs
	if cap(s.mergeScratch) > scratchEventFloor && cap(s.mergeScratch) > 4*len(tail) {
		// Decay the high-water mark an oversized overlap left behind;
		// dropping the whole array also drops its event references.
		s.mergeScratch = make([]Event, 0, 2*len(tail))
		return
	}
	// Drop the scratch's event references (they pin view blocks past
	// eviction otherwise); the backing array is reused next merge.
	clear(s.mergeScratch)
}

// insertSorted places ev after every event with Time <= ev.Time. The
// common case — in-order arrival — is an O(1) append.
func insertSorted(evs []Event, ev Event) []Event {
	n := len(evs)
	if n == 0 || evs[n-1].Time <= ev.Time {
		return append(evs, ev)
	}
	i := sort.Search(n, func(i int) bool { return evs[i].Time > ev.Time })
	evs = append(evs, Event{})
	copy(evs[i+1:], evs[i:])
	evs[i] = ev
	return evs
}

// evict permanently discards events with Time <= cutoff (RTEC's
// working-memory windowing).
func (s *eventStore) evict(cutoff Time) {
	for typ, b := range s.types {
		b.events = trimBefore(b.events, cutoff)
		for key, evs := range b.byKey {
			t := trimBefore(evs, cutoff)
			if len(t) == 0 {
				delete(b.byKey, key)
			} else {
				b.byKey[key] = t
			}
		}
		if len(b.events) == 0 && len(b.byKey) == 0 && b.lateMin == MaxTime {
			delete(s.types, typ)
		}
	}
}

// trimBefore drops the prefix of events with Time <= cutoff. When the
// dead prefix dominates, the survivors are copied into a fresh slice so
// the backing array can be reclaimed.
func trimBefore(evs []Event, cutoff Time) []Event {
	if len(evs) == 0 || evs[0].Time > cutoff {
		return evs
	}
	i := sort.Search(len(evs), func(i int) bool { return evs[i].Time > cutoff })
	if i == len(evs) {
		return nil
	}
	if i*2 >= len(evs) {
		out := make([]Event, len(evs)-i)
		copy(out, evs[i:])
		return out
	}
	// The re-slice shares the backing array, so the dead prefix would
	// stay reachable until the next copy-threshold trim — clear its
	// entries so evicted attr maps and view blocks are collectable now.
	clear(evs[:i])
	return evs[i:]
}

// window returns the stored events of a type with occurrence time in
// span [Start, End), as a shared sub-slice of the bucket.
func (b *typeEvents) window(span Span) []Event {
	return sliceSpan(b.events, span)
}

// windowForKey is window restricted to one entity key.
func (b *typeEvents) windowForKey(key string, span Span) []Event {
	return sliceSpan(b.byKey[key], span)
}

// rows wraps the window slice as a Rows view (sdeBucket).
func (b *typeEvents) rows(span Span) Rows {
	return Rows{evs: b.window(span)}
}

func (b *typeEvents) rowsForKey(key string, span Span) Rows {
	return Rows{evs: b.windowForKey(key, span)}
}

func (b *typeEvents) keysInSpan(span Span) []string {
	var out []string
	for k, evs := range b.byKey {
		if len(sliceSpan(evs, span)) > 0 {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func (b *typeEvents) countInSpan(span Span) int {
	return len(sliceSpan(b.events, span))
}

// sliceSpan restricts a time-sorted slice to [span.Start, span.End).
func sliceSpan(evs []Event, span Span) []Event {
	if len(evs) == 0 || span.Empty() {
		return nil
	}
	lo := 0
	if evs[0].Time < span.Start {
		lo = sort.Search(len(evs), func(i int) bool { return evs[i].Time >= span.Start })
	}
	hi := len(evs)
	if hi > lo && evs[hi-1].Time >= span.End {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return evs[lo+i].Time >= span.End })
	}
	if lo >= hi {
		return nil
	}
	return evs[lo:hi]
}

// dirtyFloor returns the earliest late-arrival time across the given
// SDE types, or MaxTime if none of them received late events since the
// last query. Cached rule outputs the late region can influence (at or
// after floor − effective lookahead) must be recomputed.
func (s *eventStore) dirtyFloor(sdeTypes map[string]bool) Time {
	floor := MaxTime
	for typ := range sdeTypes {
		if b := s.types[typ]; b != nil && b.lateMin < floor {
			floor = b.lateMin
		}
	}
	return floor
}

// clearDirty resets the late watermarks; the engine calls it once per
// completed query.
func (s *eventStore) clearDirty() {
	for _, b := range s.types {
		b.lateMin = MaxTime
	}
}

// Per-entry cost constants for the resident-bytes estimates, fixed so
// the accounting is platform-independent (64-bit layout assumed).
const (
	sizeEvent   = 72 // Event struct: 2 string headers, Time, map ptr, blk ptr, row
	sizeString  = 16 // string header
	sizeSlice   = 24 // slice header
	sizeMapSlot = 48 // rough per-entry map overhead incl. buckets
	sizeBox     = 16 // boxed interface value on the heap
)

// residentBytes estimates the long-lived heap the store keeps per
// event: the per-type event slices, the duplicated per-key index, the
// attribute payloads (map allocations for map-backed events, pinned
// column blocks for view events) and the key index itself. It is an
// estimate — close enough to compare store implementations, not an
// allocator audit.
func (s *eventStore) residentBytes() uint64 {
	var total uint64
	blocks := make(map[*Block]bool)
	for typ, b := range s.types {
		total += uint64(len(typ)) + sizeMapSlot + sizeSlice
		total += uint64(cap(b.events)) * sizeEvent
		for key, evs := range b.byKey {
			total += uint64(len(key)) + sizeMapSlot + uint64(cap(evs))*sizeEvent
		}
		for i := range b.events {
			ev := &b.events[i]
			if ev.blk != nil {
				if !blocks[ev.blk] {
					blocks[ev.blk] = true
					total += blockResidentBytes(ev.blk)
				}
				continue
			}
			if ev.Attrs != nil {
				total += sizeMapSlot // map header
				for name := range ev.Attrs {
					total += uint64(len(name)) + sizeMapSlot + sizeBox
				}
			}
		}
	}
	return total
}

// blockResidentBytes estimates the heap pinned by one owned block.
func blockResidentBytes(b *Block) uint64 {
	total := uint64(cap(b.Times)) * 8
	total += uint64(cap(b.Keys)) * sizeString
	for i := range b.Keys {
		total += uint64(len(b.Keys[i]))
	}
	total += uint64(cap(b.KIdx)) * 4
	for i := range b.KDict {
		total += sizeString + uint64(len(b.KDict[i]))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		total += uint64(len(c.Name))
		total += uint64(cap(c.F))*8 + uint64(cap(c.I))*8 + uint64(cap(c.B)) + uint64(cap(c.N))*8
		total += uint64(cap(c.SIdx))*4 + uint64(cap(c.A))*sizeBox + uint64(cap(c.Present))
		for i := range c.Dict {
			total += sizeString + uint64(len(c.Dict[i]))
		}
	}
	return total
}

// snapshotTypes transposes the buckets into the canonical columnar
// form by filing every event, in store order, into a scratch column
// store and handing out its snapshot — the row store is the reference
// implementation, so it shares the canonicalisation rather than the
// speed of the column store's gather.
func (s *eventStore) snapshotTypes() ([]TypeSnapshot, error) {
	cols := newColumnStore()
	for typ, b := range s.types {
		cols.bucketOf(typ).lateMin = b.lateMin
		for _, ev := range b.events {
			cols.insert(ev, false)
		}
	}
	return cols.snapshotTypes()
}

// restoreType bulk-files the snapshot rows as view events over one
// owned block; rows are time-sorted, so both indexes rebuild on their
// append fast paths.
func (s *eventStore) restoreType(ts *TypeSnapshot) {
	src := ts.Rows
	src.Keys = make([]string, src.Len())
	for i, kid := range src.KIdx {
		src.Keys[i] = src.KDict[kid]
	}
	s.types[src.Type] = &typeEvents{byKey: make(map[string][]Event), lateMin: ts.LateMin}
	s.insertRows(&src, identityRows(src.Len()), false, 0)
}

// identityRows returns the row selection 0..n-1.
func identityRows(n int) []int32 {
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return rows
}
