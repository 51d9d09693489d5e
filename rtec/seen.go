package rtec

import (
	"slices"
	"strings"
)

// seenSet is a Fresh dedup set: the derived-event identities (type,
// key, time) some earlier query already reported. Identities are filed
// per type in time buckets a fraction of the window wide, so pruning
// what left the window drops whole buckets and scans at most one per
// type — proportional to what expired, not to what is held — and a
// probe hashes the key alone.
//
// Not safe for concurrent use.
type seenSet struct {
	width Time //state:transient bucket width, fixed at construction from the window length
	types map[string]*seenType
	// lastTyp/last memoise the type lookup: callers probe in runs of one
	// type.
	lastTyp string      //state:derived memo of the last types lookup
	last    *seenType   //state:derived memo of the last types lookup
	scratch seenScratch //state:transient Entries' working memory, reused across snapshots
}

// seenScratch is the working memory Entries keeps from one call to the
// next, for one type at a time.
type seenScratch struct {
	types []string         // type names, sorted
	ids   map[string]int32 // key → dense id, in first-seen order
	keys  []string         // dense id → key
	order []int32          // rank → dense id: the distinct keys sorted
	rank  []int32          // dense id → rank
	start []int32          // rank → next slot of the counting sort
	eid   []int32          // per entry: its key's dense id
	etime []Time           // per entry: its time
	times []Time           // entry times placed by key rank
}

type seenType struct {
	buckets map[Time]map[seenKey]struct{} // by floor(time / width)
}

type seenKey struct {
	key  string
	time Time
}

// newSeenSet returns an empty set sized for a working memory of the
// given length.
func newSeenSet(window Time) *seenSet {
	return &seenSet{width: max(1, window/32), types: make(map[string]*seenType)}
}

func (s *seenSet) bucketOf(t Time) Time {
	b := t / s.width
	if t%s.width < 0 {
		b-- // floor, not truncation, for negative times
	}
	return b
}

// Add files an identity and reports whether it was new.
func (s *seenSet) Add(typ, key string, t Time) bool {
	st := s.last
	if st == nil || typ != s.lastTyp {
		st = s.types[typ]
		if st == nil {
			st = &seenType{buckets: make(map[Time]map[seenKey]struct{})}
			s.types[typ] = st
		}
		s.lastTyp, s.last = typ, st
	}
	bi := s.bucketOf(t)
	b := st.buckets[bi]
	if b == nil {
		b = make(map[seenKey]struct{})
		st.buckets[bi] = b
	}
	k := seenKey{key: key, time: t}
	if _, dup := b[k]; dup {
		return false
	}
	b[k] = struct{}{}
	return true
}

// Has reports whether the identity is filed. It writes nothing, not even
// the type memo.
func (s *seenSet) Has(typ, key string, t Time) bool {
	if st := s.types[typ]; st != nil {
		_, ok := st.buckets[s.bucketOf(t)][seenKey{key: key, time: t}]
		return ok
	}
	return false
}

// Prune forgets every identity with time <= cutoff.
func (s *seenSet) Prune(cutoff Time) {
	edge := s.bucketOf(cutoff)
	for typ, st := range s.types {
		for bi, b := range st.buckets {
			switch {
			case bi < edge:
				delete(st.buckets, bi)
			case bi == edge:
				for k := range b {
					if k.time <= cutoff {
						delete(b, k)
					}
				}
				if len(b) == 0 {
					delete(st.buckets, bi)
				}
			}
		}
		if len(st.buckets) == 0 {
			delete(s.types, typ)
			if s.last == st {
				s.last = nil
			}
		}
	}
}

// Entries returns the held identities in canonical snapshot order
// (type, key, time) — SeenEntry.Compare's order — in a new slice.
//
// Only distinct keys are compared as strings: per type, every key gets
// a dense id on first sight and a rank once its type's distinct keys
// are sorted, the entries' times are placed by rank with a counting
// sort, and each key's few times are sorted as integers. A type with n
// entries over k keys costs n map probes and O(k log k) string
// compares, not O(n log n).
func (s *seenSet) Entries() []SeenEntry {
	sc := &s.scratch
	total, ti := 0, 0
	sc.types = resized(sc.types, len(s.types))
	for typ, st := range s.types {
		for _, b := range st.buckets {
			total += len(b)
		}
		sc.types[ti] = typ
		ti++
	}
	if total == 0 {
		return nil
	}
	slices.Sort(sc.types)
	if sc.ids == nil {
		sc.ids = make(map[string]int32)
	}
	out := make([]SeenEntry, total)
	at := 0
	for _, typ := range sc.types {
		st := s.types[typ]
		n := 0
		for _, b := range st.buckets {
			n += len(b)
		}
		// Dense ids in first-seen order: the one string probe per entry.
		sc.keys = resized(sc.keys, n)
		sc.eid = resized(sc.eid, n)
		sc.etime = resized(sc.etime, n)
		nk, i := int32(0), 0
		for _, b := range st.buckets {
			for k := range b {
				id, ok := sc.ids[k.key]
				if !ok {
					id = nk
					sc.ids[k.key] = id
					sc.keys[id] = k.key
					nk++
				}
				sc.eid[i], sc.etime[i] = id, k.time
				i++
			}
		}
		// Rank the distinct keys.
		sc.order = resized(sc.order, int(nk))
		for id := range sc.order {
			sc.order[id] = int32(id)
		}
		keys := sc.keys
		slices.SortFunc(sc.order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })
		sc.rank = resized(sc.rank, int(nk))
		for r, id := range sc.order {
			sc.rank[id] = int32(r)
		}
		// Counting sort of the times by key rank.
		sc.start = resized(sc.start, int(nk)+1)
		clear(sc.start)
		for _, id := range sc.eid {
			sc.start[sc.rank[id]+1]++
		}
		for r := 1; r <= int(nk); r++ {
			sc.start[r] += sc.start[r-1]
		}
		sc.times = resized(sc.times, n)
		for j, id := range sc.eid {
			r := sc.rank[id]
			sc.times[sc.start[r]] = sc.etime[j]
			sc.start[r]++
		}
		// start[r] is now the end of rank r's run: sort each run's times
		// and emit it.
		lo := int32(0)
		for r, id := range sc.order {
			hi := sc.start[r]
			run := sc.times[lo:hi]
			slices.Sort(run)
			key := keys[id]
			for _, t := range run {
				e := &out[at]
				e.Type, e.Key, e.Time = typ, key, t
				at++
			}
			lo = hi
		}
		// Don't pin key strings until the next snapshot.
		clear(sc.ids)
		clear(sc.keys)
	}
	return out
}

// resized returns s with length n, reallocated only when it must grow.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Restore replaces the set's contents with the given identities, less
// those of the skipped (internal) types older snapshots may hold.
func (s *seenSet) Restore(entries []SeenEntry, skip map[string]bool) {
	s.types = make(map[string]*seenType)
	s.last = nil
	for _, se := range entries {
		if !skip[se.Type] {
			s.Add(se.Type, se.Key, se.Time)
		}
	}
}
