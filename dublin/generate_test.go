package dublin

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
)

// hashBatches digests every row CollectBatches emitted — stream, batch
// cut, occurrence and arrival time, key and every column's name and
// value (strings by value, not by dictionary index, which depends on
// pool recycling) — and releases the batches.
func hashBatches(bstreams []BatchedStream) string {
	h := sha256.New()
	str := func(s string) {
		putInt(h, int64(len(s)))
		h.Write([]byte(s))
	}
	for _, bs := range bstreams {
		str(bs.ID)
		putInt(h, int64(len(bs.Batches)))
		for _, b := range bs.Batches {
			str(b.Type)
			str(b.Source)
			putInt(h, int64(b.Len()))
			for i := 0; i < b.Len(); i++ {
				putInt(h, b.Times[i])
				putInt(h, b.Arrivals[i])
				str(b.Keys[i])
				for ci := range b.Cols {
					c := &b.Cols[ci]
					str(c.Name)
					switch c.Kind {
					case streams.ColFloat:
						putInt(h, int64(math.Float64bits(c.F[i])))
					case streams.ColInt:
						putInt(h, c.I[i])
					case streams.ColBool:
						if c.B[i] {
							putInt(h, 1)
						} else {
							putInt(h, 0)
						}
					default:
						str(c.Dict[c.SIdx[i]])
					}
				}
			}
			b.Release()
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInt(h hash.Hash, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	h.Write(buf[:])
}

// TestDrainIsStableArrivalSort holds the arrival drain behind Collect
// and CollectBatches to its definition: the generator's SDEs, in the
// order Next yields them, stably sorted by arrival — with no mediator
// delay, with delays short and long against the emission periods, and
// over empty ranges.
func TestDrainIsStableArrivalSort(t *testing.T) {
	const hour = 3600
	for _, tc := range []struct {
		name        string
		maxDelay    rtec.Time
		from, until rtec.Time
	}{
		{"no delay", -1, 7 * hour, 7*hour + 900},
		{"delay 1", 1, 7 * hour, 7*hour + 900},
		{"delay 45", 45, 7 * hour, 7*hour + 900},
		{"delay 600", 600, 7 * hour, 7*hour + 900},
		{"delay 600 past midnight", 600, 0, 1800},
		{"empty range", 45, 7 * hour, 7 * hour},
		{"inverted range", 600, 7 * hour, 6 * hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.MaxDelay = tc.maxDelay
			city := mustCity(t, cfg)
			var want []rawSDE
			gen := city.Stream(tc.from, tc.until)
			for {
				r, ok := gen.nextRaw()
				if !ok {
					break
				}
				want = append(want, r)
			}
			slices.SortStableFunc(want, func(a, b rawSDE) int { return cmp.Compare(a.arrival, b.arrival) })
			var got []rawSDE
			city.Stream(tc.from, tc.until).drain(func(r rawSDE) { got = append(got, r) })
			if !slices.Equal(got, want) {
				t.Fatalf("drain emitted %d SDEs, not the %d of the stable arrival sort", len(got), len(want))
			}
			if tc.from < tc.until && len(want) == 0 {
				t.Fatal("no SDEs generated")
			}
			if collected := city.Collect(tc.from, tc.until); len(collected) != len(want) {
				t.Fatalf("Collect returned %d SDEs, want %d", len(collected), len(want))
			}
		})
	}
}

// TestGeneratedStreamPinned pins the generated stream bit for bit: the
// digest of every CollectBatches row of a 1× quarter hour and of two
// Profile10x minutes at the morning peak, as the product's pipeline
// cuts them. A change to the city, the ground-truth field or the
// arrival order shows here first; the end-to-end benchmark's golden
// fingerprints only notice it through recognition.
func TestGeneratedStreamPinned(t *testing.T) {
	const hour = 3600
	cases := []struct {
		name        string
		cfg         Config
		from, until rtec.Time
		want        string
	}{
		{"1x 07:00-07:15", Config{Seed: 42}, 7 * hour, 7*hour + 900,
			"8540af7f5ae01ec6a1e583a448cf79b5a27fbd063e747a30e1381fdaca6dfaab"},
		{"10x 07:00-07:02", Profile10x(42), 7 * hour, 7*hour + 120,
			"bbed9b0712340d622861fc3e0edb3f4e2a2d3180e6a59df9c3d88b8e5b8da93a"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			city := mustCity(t, tc.cfg)
			if got := hashBatches(city.CollectBatches(tc.from, tc.until, 512, 450)); got != tc.want {
				t.Errorf("stream digest = %s, want %s", got, tc.want)
			}
		})
	}
}
