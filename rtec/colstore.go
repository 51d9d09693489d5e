package rtec

import (
	"fmt"
	"slices"
	"sort"
)

// columnStore is the columnar-resident working memory: instead of
// exploding every ingested block into 72-byte Event rows (duplicated
// once more by the per-key index), each SDE type keeps one resident
// column segment — packed time, key-id and attribute columns — plus
// two row-id indexes:
//
//   - order: the (time, arrival)-sorted view of the live rows. The
//     columns themselves are strictly append-only between compactions,
//     so a row id is stable for the row's whole lifetime; late
//     arrivals splice into order (and the per-key lists), never into
//     the columns.
//   - byKid: per key id, the row ids of that key's events,
//     time-sorted. Replaces the per-key Event copies of the row store
//     with 4 bytes per event.
//
// Arrival order is the row-id order: ids grow monotonically, so
// keeping existing ids ahead of new ones on time ties reproduces the
// row store's arrival-stable order exactly.
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
	// orderScratch is the reusable overlap buffer of mergeOrder;
	// kidScratch holds the per-row resident key ids of one insertRows
	// call; trScratch the per-source-dictionary translation table.
	orderScratch []int32  //state:transient reusable scratch
	kidScratch   []uint32 //state:transient reusable scratch
	trScratch    []uint32 //state:transient reusable scratch
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

// bucket returns the type's bucket as an sdeBucket view (untyped nil
// on a miss, as the engine's nil checks require).
func (s *columnStore) bucket(typ string) sdeBucket {
	b := s.types[typ]
	if b == nil {
		return nil
	}
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

// insert files one event: append a row to the segment, splice its id
// into the order and per-key indexes.
func (s *columnStore) insert(ev Event, late bool) {
	b := s.bucketOf(ev.Type)
	sg := &b.seg
	id := int32(len(sg.blk.Times))
	kid := sg.kidOf(ev.Key)
	sg.blk.Times = append(sg.blk.Times, int64(ev.Time))
	sg.blk.KIdx = append(sg.blk.KIdx, kid)
	sg.appendAttrs(ev)
	b.growKeys()
	b.order = spliceID(b.order, sg.blk.Times, id)
	b.byKid[kid] = spliceID(b.byKid[kid], sg.blk.Times, id)
	if late && ev.Time < b.lateMin {
		b.lateMin = ev.Time
	}
}

// spliceID places id after every id with an occurrence time <= its
// own. New ids are always larger than stored ones, so on time ties the
// existing ids stay ahead — (time, arrival) order, like insertSorted.
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
// append pass per column, one order merge, and per-key filing through
// small-integer ids (a slice index per row — no hashing). rows must be
// time-sorted, ties in arrival order; the resulting state is exactly
// what row-by-row insert produces.
func (s *columnStore) insertRows(src *Block, rows []int32, started bool, lastQ Time) {
	n := len(rows)
	if n == 0 {
		return
	}
	b := s.bucketOf(src.Type)
	sg := &b.seg
	base := int32(len(sg.blk.Times))

	// Times, key ids. Source dictionaries translate lazily — one
	// interning per distinct key used, not per dictionary entry, so an
	// oversized transport dictionary doesn't bloat the resident one.
	kr := resizeUint32(&s.kidScratch, n)
	if src.KIdx != nil {
		const unset = ^uint32(0)
		tr := resizeUint32(&s.trScratch, len(src.KDict))
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
	for j, r := range rows {
		sg.blk.Times = append(sg.blk.Times, src.Times[r])
		sg.blk.KIdx = append(sg.blk.KIdx, kr[j])
	}
	sg.appendCols(src, rows)
	b.growKeys()

	s.mergeOrder(b, base, n)

	// Per-key filing: each key's rows arrive in time order, so the
	// append fast path almost always hits; late rows splice.
	times := sg.blk.Times
	for j := 0; j < n; j++ {
		id := base + int32(j)
		lst := b.byKid[kr[j]]
		if m := len(lst); m == 0 || times[lst[m-1]] <= times[id] {
			b.byKid[kr[j]] = append(lst, id)
		} else {
			b.byKid[kr[j]] = spliceID(lst, times, id)
		}
	}

	if started {
		for _, r := range rows {
			if t := Time(src.Times[r]); t <= lastQ && t < b.lateMin {
				b.lateMin = t
			}
		}
	}
}

// mergeOrder merges the n freshly appended ids (base..base+n−1, whose
// times are sorted) into the order index. The common case — the rows
// land entirely after the stored ones — is a pure bulk append;
// otherwise only the overlapping tail is re-merged, existing ids kept
// ahead of new ones on time ties.
func (s *columnStore) mergeOrder(b *colBucket, base int32, n int) {
	times := b.seg.blk.Times
	ord := b.order
	t0 := times[base]
	if len(ord) == 0 || times[ord[len(ord)-1]] <= t0 {
		for j := 0; j < n; j++ {
			ord = append(ord, base+int32(j))
		}
		b.order = ord
		return
	}
	cut := sort.Search(len(ord), func(i int) bool { return times[ord[i]] > t0 })
	tail := append(s.orderScratch[:0], ord[cut:]...)
	ord = ord[:cut]
	i, j := 0, 0
	for i < len(tail) && j < n {
		if times[tail[i]] <= times[base+int32(j)] {
			ord = append(ord, tail[i])
			i++
		} else {
			ord = append(ord, base+int32(j))
			j++
		}
	}
	ord = append(ord, tail[i:]...)
	for ; j < n; j++ {
		ord = append(ord, base+int32(j))
	}
	b.order = ord
	if cap(tail) > scratchInt32Floor && cap(tail) > 4*len(tail) {
		tail = make([]int32, 0, 2*len(tail)) // decay an oversized overlap burst
	}
	s.orderScratch = tail
}

// resizeUint32 sizes the reusable buffer to n entries (contents
// unspecified), decaying oversized capacity.
func resizeUint32(buf *[]uint32, n int) []uint32 {
	if cap(*buf) < n || (cap(*buf) > scratchInt32Floor && cap(*buf) > 4*n) {
		*buf = make([]uint32, n, max(n, min(cap(*buf)/2, 2*n)))
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
func (s *columnStore) compact(b *colBucket) {
	old := b.seg
	live := len(b.order)

	// Live ids in ascending id order = arrival order; dense
	// renumbering in that order preserves every time tie-break.
	ids := make([]int32, live)
	copy(ids, b.order)
	slices.Sort(ids)
	remap := make([]int32, len(old.blk.Times))
	for newID, id := range ids {
		remap[id] = int32(newID)
	}

	seg := colSeg{
		blk:  Block{Type: old.blk.Type, Times: make([]int64, 0, live), KIdx: make([]uint32, 0, live)},
		kids: make(map[string]uint32, len(old.kids)),
	}
	for _, id := range ids {
		seg.blk.Times = append(seg.blk.Times, old.blk.Times[id])
		seg.blk.KIdx = append(seg.blk.KIdx, seg.kidOf(old.blk.KDict[old.blk.KIdx[id]]))
	}
	for ci := range old.blk.Cols {
		if c := gatherCol(&old.blk.Cols[ci], ids); c != nil {
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
	b.dead = 0
}

// gatherCol gathers the given rows of a column into a fresh column,
// or nil if the attribute is absent on every row (the column is
// dropped). Absent cells gather as the kind's zero value.
func gatherCol(c *BCol, ids []int32) *BCol {
	n := len(ids)
	out := &BCol{Name: c.Name, Kind: c.Kind}
	all := true
	if c.Present != nil {
		any := false
		out.Present = make([]bool, n)
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
		out.F = make([]float64, n)
		for j, id := range ids {
			if out.present(j) {
				out.F[j] = c.F[id]
			}
		}
	case ColInt:
		out.I = make([]int64, n)
		for j, id := range ids {
			if out.present(j) {
				out.I[j] = c.I[id]
			}
		}
	case ColBool:
		out.B = make([]bool, n)
		for j, id := range ids {
			if out.present(j) {
				out.B[j] = c.B[id]
			}
		}
	case ColIntGo:
		out.N = make([]int, n)
		for j, id := range ids {
			if out.present(j) {
				out.N[j] = c.N[id]
			}
		}
	case ColAny:
		out.A = make([]any, n)
		for j, id := range ids {
			if out.present(j) {
				out.A[j] = c.A[id]
			}
		}
	default: // ColStr: re-intern in first-use order so evicted strings drop out
		out.SIdx = make([]uint32, n)
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

// repackAny rebuilds a gathered boxed column cell by cell through the
// append path, which packs it again when the gathered values turn out
// to share one type (the mismatching rows were evicted) and keeps it
// boxed otherwise. Values of a type no column kind covers cannot be
// snapshotted.
func repackAny(c *BCol) (*BCol, error) {
	var out BCol
	opened := false
	for j, v := range c.A {
		ok := c.present(j)
		if ok {
			switch v.(type) {
			case float64, int64, int, bool, string:
			default:
				return nil, fmt.Errorf("attribute %q has unsupported type %T", c.Name, v)
			}
		}
		switch {
		case opened:
			out.appendCell(v, ok, j)
		case ok:
			out = newColFor(c.Name, v, j)
			opened = true
		}
	}
	out.dict = nil // the interning index is not part of the snapshot value
	return &out, nil
}

// dirtyFloor returns the earliest late-arrival time across the given
// SDE types (see eventStore.dirtyFloor — the contract is shared).
func (s *columnStore) dirtyFloor(sdeTypes map[string]bool) Time {
	floor := MaxTime
	for typ := range sdeTypes {
		if b := s.types[typ]; b != nil && b.lateMin < floor {
			floor = b.lateMin
		}
	}
	return floor
}

func (s *columnStore) clearDirty() {
	for _, b := range s.types {
		b.lateMin = MaxTime
	}
}

// residentBytes estimates the long-lived heap per bucket: the column
// segment, the two row-id indexes and the key dictionary.
func (s *columnStore) residentBytes() uint64 {
	var total uint64
	for typ, b := range s.types {
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

// snapshotTypes gathers every bucket's live rows, in order, into the
// canonical columnar snapshot form — packed cells move column by
// column, no event is materialized.
func (s *columnStore) snapshotTypes() ([]TypeSnapshot, error) {
	types := make([]string, 0, len(s.types))
	for typ := range s.types {
		types = append(types, typ)
	}
	sort.Strings(types)
	out := make([]TypeSnapshot, 0, len(types))
	for _, typ := range types {
		b := s.types[typ]
		rows, err := gatherRows(&b.seg.blk, b.order)
		if err != nil {
			return nil, err
		}
		out = append(out, TypeSnapshot{LateMin: b.lateMin, Rows: rows})
	}
	return out, nil
}

// gatherRows gathers the given rows of a dictionary-keyed block into a
// fresh block in canonical snapshot form: the key dictionary and the
// string dictionaries re-interned in first-use order, attributes no
// gathered row carries dropped, presence masks kept only where a row
// lacks the attribute, boxed columns kept only where the gathered
// values really mix types, columns sorted by name. The result depends
// on the gathered rows alone — not on dead rows, insertion history or
// the column layout they were gathered from.
func gatherRows(src *Block, ids []int32) (Block, error) {
	n := len(ids)
	out := Block{Type: src.Type, Times: make([]int64, n), KIdx: make([]uint32, n)}
	tr := unsetIDs(len(src.KDict))
	for j, id := range ids {
		out.Times[j] = src.Times[id]
		k := src.KIdx[id]
		if tr[k] == unsetID {
			tr[k] = uint32(len(out.KDict))
			out.KDict = append(out.KDict, src.KDict[k])
		}
		out.KIdx[j] = tr[k]
	}
	for ci := range src.Cols {
		c := gatherCol(&src.Cols[ci], ids)
		if c == nil {
			continue
		}
		if c.Kind == ColAny {
			var err error
			if c, err = repackAny(c); err != nil {
				return Block{}, fmt.Errorf("rtec: snapshot of %s: %w", src.Type, err)
			}
		}
		out.Cols = append(out.Cols, *c)
	}
	sort.Slice(out.Cols, func(i, j int) bool { return out.Cols[i].Name < out.Cols[j].Name })
	return out, nil
}

// restoreType bulk-files the snapshot rows: one gather per column, one
// order append, per-key filing on the append fast path. The snapshot's
// dictionaries are re-interned, so the bucket never aliases it.
func (s *columnStore) restoreType(ts *TypeSnapshot) {
	n := ts.Rows.Len()
	b := s.bucketOf(ts.Rows.Type)
	b.lateMin = ts.LateMin
	// Exact-size the row-indexed arrays (the value columns already are):
	// a restored bucket is as tight as a freshly compacted one.
	b.seg.blk.Times = make([]int64, 0, n)
	b.seg.blk.KIdx = make([]uint32, 0, n)
	b.order = make([]int32, 0, n)
	s.insertRows(&ts.Rows, identityRows(n), false, 0)
}

// --- sdeBucket views ---

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

func (b *colBucket) rows(span Span) Rows {
	lo, hi := b.idBounds(b.order, span)
	if lo >= hi {
		return Rows{}
	}
	return Rows{seg: &b.seg, ids: b.order[lo:hi]}
}

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

func (b *colBucket) countInSpan(span Span) int {
	lo, hi := b.idBounds(b.order, span)
	return hi - lo
}
