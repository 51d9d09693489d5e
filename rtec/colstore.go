package rtec

import (
	"sort"
)

// columnStore is the engine's working memory: the time-indexed SDE
// buckets a query window is extracted from. Its observable contract:
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
// Instead of one Event row per SDE, each SDE type keeps one resident
// column segment — packed time, key-id and attribute columns — plus
// two row-id indexes:
//
//   - order: the (time, arrival)-sorted view of the live rows. The
//     columns themselves are strictly append-only between compactions,
//     so a row id is stable for the row's whole lifetime; late
//     arrivals splice into order (and the per-key lists), never into
//     the columns.
//   - byKid: per key id, the row ids of that key's events,
//     time-sorted, 4 bytes per event.
//
// Arrival order is the row-id order: ids grow monotonically, so
// keeping existing ids ahead of new ones on time ties gives the
// arrival-stable order.
//
// Indexing is deferred: filing appends to the columns (and lowers the
// dirty watermark) only, and the first read after it — eviction at the
// start of a query, a bucket view, the resident-bytes estimate — settles
// the bucket, sorting every row filed since by (time, id) and merging
// them into both indexes at once. A boundary's cut therefore re-merges
// the late tail of order once per type, not once per block, and the
// merge runs inside the engine's own query.
//
// Eviction trims the order prefix and the per-key lists; the dead
// rows stay in the columns until they outnumber the live ones, at
// which point the segment is compacted — columns, dictionaries and
// both indexes rebuilt over the live rows (which is what makes
// evicted key strings and boxed values collectable).
//
// Window extraction hands out Rows views (segment + id sub-slice) —
// no Event is materialized unless a rule asks for one.
type columnStore struct {
	types map[string]*colBucket
	// orderScratch is the reusable overlap buffer of mergeIDs;
	// kidScratch holds the per-row resident key ids of one insertRows
	// call; trScratch the per-source-dictionary translation table;
	// idScratch, sortKeys and idCopy are settle's new ids and the
	// buffers of their packed time sort.
	orderScratch []int32  //state:transient reusable scratch
	kidScratch   []uint32 //state:transient reusable scratch
	trScratch    []uint32 //state:transient reusable scratch
	idScratch    []int32  //state:transient reusable scratch
	sortKeys     []uint64 //state:transient reusable scratch
	idCopy       []int32  //state:transient reusable scratch
}

// colBucket is one SDE type's resident state.
type colBucket struct {
	seg   colSeg
	order []int32
	// byKid indexes live row ids per key id.
	//state:derived per-key index, rebuilt as rows are appended
	byKid [][]int32
	// lateMin is the dirty watermark: the earliest occurrence time
	// among events that arrived at or before the engine's last query
	// time, since that query. MaxTime means no late arrivals.
	lateMin Time
	// indexed is the first row id not yet in order and byKid: rows
	// from it on were filed since the last settle.
	//state:transient index bookkeeping, every read settles it
	indexed int
	// dead counts evicted rows still physically present in seg.
	// Snapshots flatten only live rows, so a restored bucket starts
	// compacted with zero dead rows.
	//state:transient physical-layout bookkeeping, not logical state
	dead int
}

// colSeg is the resident column segment: a Block whose Keys slice is
// nil (keys live dict-encoded in KIdx/KDict) plus the interning map
// for the key dictionary.
type colSeg struct {
	blk Block
	//state:derived interning index over blk.KDict, rebuilt by kidOf
	kids map[string]uint32
}

func newColumnStore() *columnStore {
	return &columnStore{types: make(map[string]*colBucket)}
}

func (s *columnStore) bucketOf(typ string) *colBucket {
	b := s.types[typ]
	if b == nil {
		b = &colBucket{
			seg:     colSeg{blk: Block{Type: typ}, kids: make(map[string]uint32)},
			lateMin: MaxTime,
		}
		s.types[typ] = b
	}
	return b
}

// bucket returns the type's settled bucket, or nil if the store holds
// no events of the type.
func (s *columnStore) bucket(typ string) *colBucket {
	b := s.types[typ]
	if b == nil {
		return nil
	}
	s.settle(b)
	return b
}

// kidOf interns a key in the segment's dictionary.
func (sg *colSeg) kidOf(key string) uint32 {
	if kid, ok := sg.kids[key]; ok {
		return kid
	}
	kid := uint32(len(sg.blk.KDict))
	sg.kids[key] = kid
	sg.blk.KDict = append(sg.blk.KDict, key)
	return kid
}

// growKeys sizes byKid to the key dictionary.
func (b *colBucket) growKeys() {
	for len(b.byKid) < len(b.seg.blk.KDict) {
		b.byKid = append(b.byKid, nil)
	}
}

// insert files one event: append a row to the segment; the next read
// indexes it. late marks events landing at or before the last query
// time.
func (s *columnStore) insert(ev Event, late bool) {
	b := s.bucketOf(ev.Type)
	sg := &b.seg
	kid := sg.kidOf(ev.Key)
	sg.blk.Times = append(sg.blk.Times, int64(ev.Time))
	sg.blk.KIdx = append(sg.blk.KIdx, kid)
	sg.appendAttrs(ev)
	if late && ev.Time < b.lateMin {
		b.lateMin = ev.Time
	}
}

// spliceID places id after every id with an occurrence time <= its
// own. New ids are always larger than stored ones, so on time ties the
// existing ids stay ahead — (time, arrival) order.
func spliceID(ids []int32, times []int64, id int32) []int32 {
	t := times[id]
	n := len(ids)
	if n == 0 || times[ids[n-1]] <= t {
		return append(ids, id)
	}
	i := sort.Search(n, func(i int) bool { return times[ids[i]] > t })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// insertRows bulk-files the given rows of a caller-owned block: one
// append pass per column, every resident slice grown at most once, key
// ids through small-integer translation (a slice index per row — no
// hashing). rows must be time-sorted, ties in arrival order; once
// settled, the resulting state is exactly what row-by-row insert
// produces. The store copies what it keeps, so the caller may recycle
// src afterwards.
func (s *columnStore) insertRows(src *Block, rows []int32, started bool, lastQ Time) {
	n := len(rows)
	if n == 0 {
		return
	}
	b := s.bucketOf(src.Type)
	sg := &b.seg

	// Times, key ids. Source dictionaries translate lazily — one
	// interning per distinct key used, not per dictionary entry, so an
	// oversized transport dictionary doesn't bloat the resident one.
	kr := resizeScratch(&s.kidScratch, n)
	if src.KIdx != nil {
		const unset = ^uint32(0)
		tr := resizeScratch(&s.trScratch, len(src.KDict))
		for i := range tr {
			tr[i] = unset
		}
		for j, r := range rows {
			k := src.KIdx[r]
			if tr[k] == unset {
				tr[k] = sg.kidOf(src.KDict[k])
			}
			kr[j] = tr[k]
		}
	} else {
		for j, r := range rows {
			kr[j] = sg.kidOf(src.Keys[r])
		}
	}
	sg.blk.Times = grown(sg.blk.Times, n)
	sg.blk.KIdx = grown(sg.blk.KIdx, n)
	for j, r := range rows {
		sg.blk.Times = append(sg.blk.Times, src.Times[r])
		sg.blk.KIdx = append(sg.blk.KIdx, kr[j])
	}
	sg.appendCols(src, rows)

	if started {
		for _, r := range rows {
			if t := Time(src.Times[r]); t <= lastQ && t < b.lateMin {
				b.lateMin = t
			}
		}
	}
}

// grown returns s with room for n more elements: reallocated at most
// once, to at least twice its capacity, so a column filed block by
// block is copied O(log rows) times, not once per 1.25× of append's
// growth (compaction sizes the resident slices exactly).
func grown[S ~[]E, E any](s S, n int) S {
	if n <= cap(s)-len(s) {
		return s
	}
	out := make(S, len(s), max(2*cap(s), len(s)+n))
	copy(out, s)
	return out
}

// settle indexes the rows filed since the last settle: their ids,
// sorted by (time, id), merge into order at once and file into their
// keys' lists. Ids grow in filing order, so the result is the (time,
// arrival) order filing each block's rows straight into the indexes
// produces.
func (s *columnStore) settle(b *colBucket) {
	times := b.seg.blk.Times
	n := len(times)
	if b.indexed == n {
		return
	}
	ids := s.idScratch[:0]
	for id := b.indexed; id < n; id++ {
		ids = append(ids, int32(id))
	}
	if !timeSorted(ids, times) {
		sortByTime(ids, times, &s.sortKeys, &s.idCopy)
	}
	b.order = s.mergeIDs(b.order, ids, times)

	// Per-key filing: each key's rows come in time order, so the
	// append fast path almost always hits; late rows splice.
	b.growKeys()
	kidx := b.seg.blk.KIdx
	for _, id := range ids {
		k := kidx[id]
		lst := b.byKid[k]
		if m := len(lst); m == 0 || times[lst[m-1]] <= times[id] {
			b.byKid[k] = append(lst, id)
		} else {
			b.byKid[k] = spliceID(lst, times, id)
		}
	}
	b.indexed = n
	if cap(ids) > scratchInt32Floor && cap(ids) > 4*len(ids) {
		ids = nil // decay an oversized burst
	}
	s.idScratch = ids
}

// mergeIDs merges ids — (time, id)-sorted, every one larger than any
// in ord — into the order index ord. The common case, ids landing
// entirely after the stored ones, is a pure bulk append; otherwise only
// the overlapping tail is re-merged, stored ids kept ahead of new ones
// on time ties.
func (s *columnStore) mergeIDs(ord, ids []int32, times []int64) []int32 {
	ord = grown(ord, len(ids))
	t0 := times[ids[0]]
	if len(ord) == 0 || times[ord[len(ord)-1]] <= t0 {
		return append(ord, ids...)
	}
	cut := sort.Search(len(ord), func(i int) bool { return times[ord[i]] > t0 })
	tail := append(s.orderScratch[:0], ord[cut:]...)
	ord = ord[:cut]
	i, j := 0, 0
	for i < len(tail) && j < len(ids) {
		if times[tail[i]] <= times[ids[j]] {
			ord = append(ord, tail[i])
			i++
		} else {
			ord = append(ord, ids[j])
			j++
		}
	}
	ord = append(ord, tail[i:]...)
	ord = append(ord, ids[j:]...)
	if cap(tail) > scratchInt32Floor && cap(tail) > 4*len(tail) {
		tail = make([]int32, 0, 2*len(tail)) // decay an oversized overlap burst
	}
	s.orderScratch = tail
	return ord
}

// resizeScratch sizes the reusable buffer to n entries (contents
// unspecified), decaying oversized capacity.
func resizeScratch[T any](buf *[]T, n int) []T {
	if cap(*buf) < n || (cap(*buf) > scratchInt32Floor && cap(*buf) > 4*n) {
		*buf = make([]T, n, max(n, min(cap(*buf)/2, 2*n)))
		return *buf
	}
	*buf = (*buf)[:n]
	return *buf
}

// evict discards rows with Time <= cutoff: the order prefix and the
// per-key list prefixes are trimmed (row-id slices, 4 bytes per
// entry); the column data itself is reclaimed by compaction once dead
// rows outnumber live ones.
func (s *columnStore) evict(cutoff Time) {
	for typ, b := range s.types {
		s.settle(b)
		times := b.seg.blk.Times
		k := 0
		if len(b.order) > 0 && Time(times[b.order[0]]) <= cutoff {
			k = sort.Search(len(b.order), func(i int) bool { return Time(times[b.order[i]]) > cutoff })
		}
		if k > 0 {
			b.dead += k
			b.order = trimIDs(b.order, k)
			for kid := range b.byKid {
				lst := b.byKid[kid]
				if len(lst) == 0 || Time(times[lst[0]]) > cutoff {
					continue
				}
				j := sort.Search(len(lst), func(i int) bool { return Time(times[lst[i]]) > cutoff })
				b.byKid[kid] = trimIDs(lst, j)
			}
		}
		if b.dead > 0 && b.dead >= len(b.order) {
			s.compact(b)
		}
		if len(b.order) == 0 && b.lateMin == MaxTime {
			delete(s.types, typ)
		}
	}
}

// trimIDs drops the first k ids. When the dead prefix dominates, the
// survivors move to a fresh slice so the backing array shrinks; a
// small prefix is a plain re-slice (pointer-free, bounded at 2× by
// the copy threshold).
func trimIDs(ids []int32, k int) []int32 {
	if k >= len(ids) {
		return nil
	}
	if k*2 >= len(ids) {
		out := make([]int32, len(ids)-k)
		copy(out, ids[k:])
		return out
	}
	return ids[k:]
}

// compact rebuilds the segment over the live rows: columns and both
// dictionaries are re-gathered (dropping evicted strings and boxed
// values), row ids are renumbered densely in arrival order, and the
// indexes remapped. Runs when dead rows outnumber live ones, so its
// cost is amortised O(1) per evicted row.
//
// The segment refills to about twice its live rows before it is
// compacted again, so the new slices are sized for that plus a quarter
// of slack: sized exactly, the refill regrows them (by doubling) once,
// and again whenever the cycle's filing overshoots twice the live rows
// by one row — about three times the bytes per filed row.
func (s *columnStore) compact(b *colBucket) {
	old := b.seg
	live := len(b.order)
	room := 2*live + live/2

	// Live ids in ascending id order = arrival order; dense
	// renumbering in that order preserves every time tie-break. The
	// live ids are a subset of [0, len(Times)): mark them in remap, then
	// number them in one ascending pass.
	remap := make([]int32, len(old.blk.Times))
	for _, id := range b.order {
		remap[id] = 1
	}
	ids := make([]int32, 0, live)
	for id, mark := range remap {
		if mark != 0 {
			remap[id] = int32(len(ids))
			ids = append(ids, int32(id))
		}
	}

	seg := colSeg{
		blk:  Block{Type: old.blk.Type, Times: make([]int64, 0, room), KIdx: make([]uint32, 0, room)},
		kids: make(map[string]uint32, len(old.kids)),
	}
	for _, id := range ids {
		seg.blk.Times = append(seg.blk.Times, old.blk.Times[id])
		seg.blk.KIdx = append(seg.blk.KIdx, seg.kidOf(old.blk.KDict[old.blk.KIdx[id]]))
	}
	for ci := range old.blk.Cols {
		if c := gatherCol(&old.blk.Cols[ci], ids, room); c != nil {
			seg.blk.Cols = append(seg.blk.Cols, *c)
		}
	}

	for i := range b.order {
		b.order[i] = remap[b.order[i]]
	}
	byKid := make([][]int32, len(seg.blk.KDict))
	for kid := range b.byKid {
		lst := b.byKid[kid]
		if len(lst) == 0 {
			continue
		}
		nk := seg.kids[old.blk.KDict[kid]]
		nl := make([]int32, len(lst))
		for i, id := range lst {
			nl[i] = remap[id]
		}
		byKid[nk] = nl
	}
	b.seg = seg
	b.byKid = byKid
	b.indexed = live
	b.dead = 0
}

// gatherCol gathers the given rows of a column into a fresh column
// with room for as many cells in all, or nil if the attribute is absent
// on every row (the column is dropped). Absent cells gather as the
// kind's zero value.
func gatherCol(c *BCol, ids []int32, room int) *BCol {
	n := len(ids)
	out := &BCol{Name: c.Name, Kind: c.Kind}
	all := true
	if c.Present != nil {
		any := false
		out.Present = make([]bool, n, room)
		for j, id := range ids {
			p := c.Present[id]
			out.Present[j] = p
			any = any || p
			all = all && p
		}
		if !any {
			return nil
		}
		if all {
			out.Present = nil
		}
	}
	switch c.Kind {
	case ColFloat:
		out.F = make([]float64, n, room)
		for j, id := range ids {
			if out.present(j) {
				out.F[j] = c.F[id]
			}
		}
	case ColInt:
		out.I = make([]int64, n, room)
		for j, id := range ids {
			if out.present(j) {
				out.I[j] = c.I[id]
			}
		}
	case ColBool:
		out.B = make([]bool, n, room)
		for j, id := range ids {
			if out.present(j) {
				out.B[j] = c.B[id]
			}
		}
	case ColIntGo:
		out.N = make([]int, n, room)
		for j, id := range ids {
			if out.present(j) {
				out.N[j] = c.N[id]
			}
		}
	case ColAny:
		out.A = make([]any, n, room)
		for j, id := range ids {
			if out.present(j) {
				out.A[j] = c.A[id]
			}
		}
	case ColIntList:
		out.Ends = make([]uint32, n, room)
		cells := 0
		for _, id := range ids {
			cells += len(c.list(int(id)))
		}
		if n > 0 {
			out.L = make([]int32, 0, cells*room/n)
		}
		for j, id := range ids {
			if out.present(j) {
				out.L = append(out.L, c.list(int(id))...)
			}
			out.Ends[j] = uint32(len(out.L))
		}
	default: // ColStr: re-intern in first-use order so evicted strings drop out
		out.SIdx = make([]uint32, n, room)
		tr := unsetIDs(len(c.Dict))
		for j, id := range ids {
			if !out.present(j) {
				continue
			}
			si := c.SIdx[id]
			if tr[si] == unsetID {
				tr[si] = uint32(len(out.Dict))
				out.Dict = append(out.Dict, c.Dict[si])
			}
			out.SIdx[j] = tr[si]
		}
	}
	return out
}

// unsetID marks a dictionary entry a gather has not translated yet.
const unsetID = ^uint32(0)

// unsetIDs returns a dictionary translation table of n untranslated
// entries: gathers re-intern in first-use order by table lookup, no
// hashing.
func unsetIDs(n int) []uint32 {
	tr := make([]uint32, n)
	for i := range tr {
		tr[i] = unsetID
	}
	return tr
}

// dirtyFloor returns the earliest late-arrival time across the given
// SDE types, or MaxTime if none of them received late events since the
// last query. Cached rule outputs the late region can influence (at or
// after floor − effective lookahead) must be recomputed.
func (s *columnStore) dirtyFloor(sdeTypes map[string]bool) Time {
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
func (s *columnStore) clearDirty() {
	for _, b := range s.types {
		b.lateMin = MaxTime
	}
}

// Scratch buffers are sized by the largest burst ever seen; one
// oversized burst (a delayed region flushing at once) must not pin that
// high-water mark forever. Buffers above the floor that a use fills to
// less than a quarter of capacity are reallocated at twice the need —
// the next burst pays one allocation, steady state pays none.
const scratchInt32Floor = 1 << 12 // int32 ids; also the entry floor of every other reused slice

// Per-entry cost constants for the resident-bytes estimates, fixed so
// the accounting is platform-independent (64-bit layout assumed).
const (
	sizeString  = 16 // string header
	sizeSlice   = 24 // slice header
	sizeMapSlot = 48 // rough per-entry map overhead incl. buckets
	sizeBox     = 16 // boxed interface value on the heap
)

// residentBytes estimates the long-lived heap per bucket: the column
// segment, the two row-id indexes and the key dictionary. It is an
// estimate, not an allocator audit: O(stored events), and the engine
// only calls it under Profile.
func (s *columnStore) residentBytes() uint64 {
	var total uint64
	for typ, b := range s.types {
		s.settle(b)
		total += uint64(len(typ)) + sizeMapSlot
		total += blockResidentBytes(&b.seg.blk)
		total += uint64(cap(b.order)) * 4
		total += uint64(cap(b.byKid)) * sizeSlice
		for kid := range b.byKid {
			total += uint64(cap(b.byKid[kid])) * 4
		}
		for key := range b.seg.kids {
			total += uint64(len(key)) + sizeMapSlot
		}
	}
	return total
}

// blockResidentBytes estimates the heap pinned by a segment's block
// (whose keys live in KIdx/KDict: Keys is nil).
func blockResidentBytes(b *Block) uint64 {
	total := uint64(cap(b.Times)) * 8
	total += uint64(cap(b.KIdx)) * 4
	for i := range b.KDict {
		total += sizeString + uint64(len(b.KDict[i]))
	}
	for ci := range b.Cols {
		c := &b.Cols[ci]
		total += uint64(len(c.Name))
		total += uint64(cap(c.F))*8 + uint64(cap(c.I))*8 + uint64(cap(c.B)) + uint64(cap(c.N))*8
		total += uint64(cap(c.SIdx))*4 + uint64(cap(c.A))*sizeBox + uint64(cap(c.Present))
		total += uint64(cap(c.Ends))*4 + uint64(cap(c.L))*4
		for i := range c.Dict {
			total += sizeString + uint64(len(c.Dict[i]))
		}
	}
	return total
}

// --- bucket views ---

// idBounds restricts a time-sorted id list to [span.Start, span.End),
// mirroring sliceSpan.
func (b *colBucket) idBounds(ids []int32, span Span) (int, int) {
	if len(ids) == 0 || span.Empty() {
		return 0, 0
	}
	times := b.seg.blk.Times
	lo := 0
	if Time(times[ids[0]]) < span.Start {
		lo = sort.Search(len(ids), func(i int) bool { return Time(times[ids[i]]) >= span.Start })
	}
	hi := len(ids)
	if hi > lo && Time(times[ids[hi-1]]) >= span.End {
		hi = lo + sort.Search(hi-lo, func(i int) bool { return Time(times[ids[lo+i]]) >= span.End })
	}
	if lo >= hi {
		return 0, 0
	}
	return lo, hi
}

// rows returns the events with occurrence time in span, as a zero-copy
// view in (time, arrival) order.
func (b *colBucket) rows(span Span) Rows {
	lo, hi := b.idBounds(b.order, span)
	if lo >= hi {
		return Rows{}
	}
	return Rows{seg: &b.seg, ids: b.order[lo:hi]}
}

// rowsForKey is rows restricted to one entity key.
func (b *colBucket) rowsForKey(key string, span Span) Rows {
	kid, ok := b.seg.kids[key]
	if !ok {
		return Rows{}
	}
	lo, hi := b.idBounds(b.byKid[kid], span)
	if lo >= hi {
		return Rows{}
	}
	return Rows{seg: &b.seg, ids: b.byKid[kid][lo:hi]}
}

// keysInSpan returns the distinct entity keys with events in span,
// sorted.
func (b *colBucket) keysInSpan(span Span) []string {
	var out []string
	for kid := range b.byKid {
		if lo, hi := b.idBounds(b.byKid[kid], span); lo < hi {
			out = append(out, b.seg.blk.KDict[kid])
		}
	}
	sort.Strings(out)
	return out
}

// countInSpan returns the number of events in span.
func (b *colBucket) countInSpan(span Span) int {
	lo, hi := b.idBounds(b.order, span)
	return hi - lo
}
