package rtec

import "slices"

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
	lastTyp string    //state:derived memo of the last types lookup
	last    *seenType //state:derived memo of the last types lookup
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
func (s *seenSet) Entries() []SeenEntry {
	total := 0
	for _, st := range s.types {
		for _, b := range st.buckets {
			total += len(b)
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]SeenEntry, total)
	i := 0
	for typ, st := range s.types {
		for _, b := range st.buckets {
			for k := range b {
				e := &out[i]
				e.Type, e.Key, e.Time = typ, k.key, k.time
				i++
			}
		}
	}
	slices.SortFunc(out, SeenEntry.Compare)
	return out
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
