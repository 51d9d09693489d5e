package rtec

import (
	"slices"
	"testing"
)

// entriesBySort is the collect-and-comparison-sort Entries the rank
// ordering replaced: every identity gathered, then sorted by
// SeenEntry.Compare. It is the oracle FuzzSeenEntries holds Entries to.
func entriesBySort(s *seenSet) []SeenEntry {
	var out []SeenEntry
	for typ, st := range s.types {
		for _, b := range st.buckets {
			for k := range b {
				out = append(out, SeenEntry{Type: typ, Key: k.key, Time: k.time})
			}
		}
	}
	slices.SortFunc(out, SeenEntry.Compare)
	return out
}

// Types and keys the fuzzer picks from: empty strings, prefixes of one
// another, a NUL and bytes above ASCII, so string order is exercised
// where it is easiest to get wrong.
var (
	seenFuzzTypes = []string{"", "x", "xy", "y", "agree", "disagree"}
	seenFuzzKeys  = []string{"", "a", "ab", "a\x00", "b", "bus-1", "bus-10", "bus-2", "é", "\xff", "I17", "i17"}
)

// FuzzSeenEntries holds Entries to the comparison sort element for
// element, over random types, keys and times — negative, equal across
// keys and types, far apart — interleaved with Prune and with Restore
// round trips, on one set whose scratch is reused throughout.
func FuzzSeenEntries(f *testing.F) {
	f.Add(int64(64), []byte{0, 1, 2, 3, 0, 1, 3, 3, 1, 2, 0, 255, 5, 0, 0, 2, 6, 0, 0, 0, 0, 4, 4, 9})
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 7, 0, 0, 0})
	f.Add(int64(1800), []byte{3, 5, 11, 128, 2, 5, 10, 128, 1, 4, 10, 127, 5, 0, 128, 0, 6, 1, 1, 1})
	f.Add(int64(-5), []byte{0, 2, 3, 200, 0, 2, 3, 201, 0, 3, 2, 200})
	f.Fuzz(func(t *testing.T, window int64, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64] // every step re-checks the whole set
		}
		s := newSeenSet(Time(window))
		check := func(step int) {
			t.Helper()
			want := entriesBySort(s)
			for pass := 0; pass < 2; pass++ { // the second pass runs on warm scratch
				if got := s.Entries(); !slices.Equal(got, want) {
					t.Fatalf("step %d pass %d: Entries = %v, comparison sort = %v", step, pass, got, want)
				}
			}
		}
		for step := 0; len(ops) >= 4; step++ {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			tm := Time(int16(uint16(b)<<8|uint16(c))) - 64 // negative and positive, often equal
			if a&0x80 != 0 {
				tm *= 1 << 40 // far apart: many buckets
			}
			switch op % 8 {
			case 0, 1, 2, 3, 4:
				s.Add(seenFuzzTypes[int(a&0x7f)%len(seenFuzzTypes)], seenFuzzKeys[int(op>>3)%len(seenFuzzKeys)], tm)
			case 5:
				s.Prune(tm)
			case 6:
				r := newSeenSet(Time(window))
				r.Restore(s.Entries())
				if got, want := r.Entries(), s.Entries(); !slices.Equal(got, want) {
					t.Fatalf("step %d: Restore(Entries()) = %v, want %v", step, got, want)
				}
				r.scratch = s.scratch // keep warm scratch across the swap
				s = r
			case 7:
				s.Restore(s.Entries())
			}
			check(step)
		}
	})
}
