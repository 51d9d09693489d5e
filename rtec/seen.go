package rtec

import "slices"

// seenSet is a Fresh dedup set: the derived-event identities (type,
// key, time) some earlier query already reported. It holds output
// events only (Builder.Output), a few thousand identities per window,
// so one flat map pruned by a full scan serves.
//
// Not safe for concurrent use.
type seenSet struct {
	ids map[SeenEntry]struct{}
}

// newSeenSet returns an empty set.
func newSeenSet() *seenSet {
	return &seenSet{ids: make(map[SeenEntry]struct{})}
}

// Add files an identity and reports whether it was new.
func (s *seenSet) Add(typ, key string, t Time) bool {
	id := SeenEntry{Type: typ, Key: key, Time: t}
	if _, dup := s.ids[id]; dup {
		return false
	}
	s.ids[id] = struct{}{}
	return true
}

// Has reports whether the identity is filed.
func (s *seenSet) Has(typ, key string, t Time) bool {
	_, ok := s.ids[SeenEntry{Type: typ, Key: key, Time: t}]
	return ok
}

// Prune forgets every identity with time <= cutoff.
func (s *seenSet) Prune(cutoff Time) {
	for id := range s.ids {
		if id.Time <= cutoff {
			delete(s.ids, id)
		}
	}
}

// Entries returns the held identities in canonical snapshot order
// (type, key, time) — SeenEntry.Compare's order — in a new slice.
func (s *seenSet) Entries() []SeenEntry {
	if len(s.ids) == 0 {
		return nil
	}
	out := make([]SeenEntry, len(s.ids))
	i := 0
	for id := range s.ids {
		out[i] = id
		i++
	}
	slices.SortFunc(out, SeenEntry.Compare)
	return out
}

// Restore replaces the set's contents with the given identities of the
// output types; those of other types, which snapshots written under
// other definitions may hold, are dropped.
func (s *seenSet) Restore(entries []SeenEntry, outputs map[string]bool) {
	s.ids = make(map[SeenEntry]struct{}, len(entries))
	for _, se := range entries {
		if outputs[se.Type] {
			s.ids[se] = struct{}{}
		}
	}
}
