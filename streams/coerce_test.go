package streams

import (
	"encoding/json"
	"math"
	"testing"
)

// TestItemNumericCoercion pins the documented coercion matrix of
// Item.Float across every numeric representation a source can produce
// (native ints from generators, unsigned counters, json.Number from
// decoded feeds), including the documented edge semantics: uint64
// values above MaxInt64 convert exactly, and unparsable json.Number
// yields zero.
func TestItemNumericCoercion(t *testing.T) {
	cases := []struct {
		name      string
		value     any
		wantFloat float64
	}{
		{"float64", float64(2.75), 2.75},
		{"float64 negative", float64(-2.75), -2.75},
		{"float32", float32(1.5), 1.5},
		{"int", int(-42), -42},
		{"int32", int32(7), 7},
		{"int64", int64(1 << 40), 1 << 40},
		{"uint", uint(19), 19},
		{"uint32", uint32(4294967295), 4294967295},
		{"uint64 small", uint64(88), 88},
		// Above MaxInt64: Float converts exactly (2^64-1 rounds to
		// 2^64 in float64).
		{"uint64 huge", uint64(math.MaxUint64), float64(math.MaxUint64)},
		{"json int", json.Number("12345"), 12345},
		{"json float", json.Number("3.9"), 3.9},
		{"json negative float", json.Number("-3.9"), -3.9},
		{"json exponent", json.Number("1e15"), 1e15},
		{"json garbage", json.Number("not-a-number"), 0},
		{"string", "12", 0},
		{"bool", true, 0},
		{"missing", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			it := Item{}
			if tc.value != nil {
				it["v"] = tc.value
			}
			if got := it.Float("v"); got != tc.wantFloat {
				t.Errorf("Float(%v) = %v, want %v", tc.value, got, tc.wantFloat)
			}
		})
	}
}
