package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/geo"
)

// bruteClose is the definition AppendClose must reproduce: geo.Close
// against every intersection, in index order; nothing for a point
// outside the WGS-84 bounds.
func bruteClose(ins []Intersection, p geo.Point, closeMeters float64) []int32 {
	var out []int32
	if !p.Valid() {
		return out
	}
	for i, in := range ins {
		if geo.Close(p, in.Pos, closeMeters) {
			out = append(out, int32(i))
		}
	}
	return out
}

func gridCity(t testing.TB, south, west float64, rows, cols int, step float64) []Intersection {
	t.Helper()
	var ins []Intersection
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			ins = append(ins, Intersection{
				ID:  fmt.Sprintf("i%d-%d", r, c),
				Pos: geo.At(south+float64(r)*step, west+float64(c)*step),
			})
		}
	}
	return ins
}

func TestAppendCloseEdges(t *testing.T) {
	dublin := gridCity(t, 53.30, -6.40, 12, 20, 0.004)
	santiago := gridCity(t, -33.50, -70.70, 10, 10, 0.003) // negative coordinates on both axes
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name        string
		ins         []Intersection
		closeMeters float64
		probes      []geo.Point
		wantNone    bool
	}{
		{name: "empty registry", closeMeters: 150, probes: []geo.Point{geo.At(53.35, -6.26)}, wantNone: true},
		{name: "non-finite points", ins: dublin, closeMeters: 150, wantNone: true, probes: []geo.Point{
			geo.At(nan, -6.26), geo.At(53.35, nan), geo.At(nan, nan),
			geo.At(inf, -6.26), geo.At(-inf, -6.26), geo.At(53.35, inf), geo.At(53.35, -inf),
		}},
		{name: "outside the WGS-84 bounds", ins: dublin, closeMeters: 150, wantNone: true, probes: []geo.Point{
			geo.At(91, -6.26), geo.At(53.35, 181), geo.At(-1e300, 1e300),
		}},
		// The registry spans [53.30, 53.344] x [-6.40, -6.324]; a cell is
		// about 0.0014° tall and 0.0023° wide at 150 m.
		{name: "one cell outside each edge", ins: dublin, closeMeters: 150, wantNone: true, probes: []geo.Point{
			geo.At(53.30-0.003, -6.36), geo.At(53.344+0.003, -6.36),
			geo.At(53.32, -6.40-0.005), geo.At(53.32, -6.324+0.005),
			geo.At(53.30-0.003, -6.40-0.005), geo.At(53.344+0.003, -6.324+0.005),
		}},
		{name: "just inside each edge", ins: dublin, closeMeters: 150, probes: []geo.Point{
			geo.At(53.30-0.001, -6.40), geo.At(53.344+0.001, -6.324),
			geo.At(53.30, -6.40-0.002), geo.At(53.344, -6.324+0.002),
			geo.At(53.30, -6.40), geo.At(53.322, -6.362),
		}},
		{name: "negative-coordinate city", ins: santiago, closeMeters: 400, probes: []geo.Point{
			geo.At(-33.50, -70.70), geo.At(-33.4865, -70.6865), geo.At(-33.473, -70.673),
			geo.At(-33.51, -70.70), geo.At(-33.48, -70.66), geo.At(33.48, 70.68),
		}},
		{name: "threshold larger than the city", ins: dublin, closeMeters: 50000, probes: []geo.Point{
			geo.At(53.32, -6.36), geo.At(53.0, -6.0), geo.At(53.7, -6.9), geo.At(55.0, -6.36), geo.At(0, 0),
		}},
		{name: "threshold larger than the planet", ins: santiago, closeMeters: 3e7, probes: []geo.Point{
			geo.At(53.32, -6.36), geo.At(-90, 180), geo.At(90, -180),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, err := NewRegistry(tc.ins, tc.closeMeters)
			if err != nil {
				t.Fatal(err)
			}
			matched := 0
			for _, p := range tc.probes {
				got := reg.AppendClose(nil, p)
				want := bruteClose(tc.ins, p, tc.closeMeters)
				if !slices.Equal(got, want) {
					t.Errorf("AppendClose(%v) = %v, brute force %v", p, got, want)
				}
				if tc.wantNone && len(got) != 0 {
					t.Errorf("AppendClose(%v) = %v, want no match", p, got)
				}
				matched += len(got)
			}
			if !tc.wantNone && matched == 0 {
				t.Error("no probe matched anything: the case does not exercise the index")
			}
		})
	}
}

func TestAppendCloseReusesDst(t *testing.T) {
	ins := gridCity(t, 53.30, -6.40, 4, 4, 0.001)
	reg, err := NewRegistry(ins, 150)
	if err != nil {
		t.Fatal(err)
	}
	p := geo.At(53.3015, -6.3985)
	buf := make([]int32, 0, 16)
	got := reg.AppendClose(append(buf, 99), p)
	if want := append([]int32{99}, bruteClose(ins, p, 150)...); !slices.Equal(got, want) {
		t.Fatalf("AppendClose onto a prefix = %v, want %v", got, want)
	}
	if avg := testing.AllocsPerRun(100, func() { buf = reg.AppendClose(buf[:0], p) }); avg != 0 {
		t.Errorf("AppendClose with a reused buffer allocates %.1f times per call", avg)
	}
}

func TestRegistryRejectsInvalidPositions(t *testing.T) {
	for _, pos := range []geo.Point{geo.At(math.NaN(), 0), geo.At(0, math.Inf(1)), geo.At(91, 0)} {
		if _, err := NewRegistry([]Intersection{{ID: "x", Pos: pos}}, 100); err == nil {
			t.Errorf("NewRegistry accepted an intersection at %v", pos)
		}
	}
	for _, m := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := NewRegistry(nil, m); err == nil {
			t.Errorf("NewRegistry accepted a close threshold of %v", m)
		}
	}
}

// FuzzCloseIndex holds AppendClose to its definition on random
// registries: for any point, exactly the intersections geo.Close selects,
// in ascending index order — and never a panic, whatever the point.
func FuzzCloseIndex(f *testing.F) {
	f.Add(int64(1), uint8(40), 150.0, 53.35, -6.26, 0.1)
	f.Add(int64(2), uint8(200), 400.0, -33.45, -70.66, 0.05)
	f.Add(int64(3), uint8(12), 5e6, 10.0, 20.0, 30.0)
	f.Add(int64(4), uint8(60), 1000.0, 89.99, 179.99, 0.02)
	f.Add(int64(5), uint8(3), 1e-3, 0.0, 0.0, 1e-7)
	f.Add(int64(6), uint8(90), 150.0, math.NaN(), math.Inf(-1), 0.2)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, closeMeters, lat, lon, spread float64) {
		if !(closeMeters > 0) || math.IsInf(closeMeters, 0) || math.IsNaN(spread) || math.IsInf(spread, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		centre := geo.At(clamp(lat, -90, 90), clamp(lon, -180, 180))
		spread = math.Abs(spread)
		ins := make([]Intersection, n)
		for i := range ins {
			ins[i] = Intersection{ID: fmt.Sprint(i), Pos: geo.At(
				clamp(centre.Lat+(rng.Float64()-0.5)*spread, -90, 90),
				clamp(centre.Lon+(rng.Float64()-0.5)*2*spread, -180, 180),
			)}
		}
		reg, err := NewRegistry(ins, closeMeters)
		if err != nil {
			t.Fatal(err)
		}
		// The fuzzed point as given (possibly non-finite or far away), the
		// centre, and points scattered around the intersections at the
		// scale of the threshold, where membership is decided.
		probes := []geo.Point{geo.At(lat, lon), centre}
		reach := closeMeters / 111000
		for _, in := range ins {
			probes = append(probes, geo.At(
				in.Pos.Lat+(rng.Float64()-0.5)*3*reach,
				in.Pos.Lon+(rng.Float64()-0.5)*6*reach,
			))
		}
		var buf []int32
		for _, p := range probes {
			buf = reg.AppendClose(buf[:0], p)
			if want := bruteClose(ins, p, closeMeters); !slices.Equal(buf, want) {
				t.Fatalf("%d intersections, close %v m: AppendClose(%v) = %v, brute force %v",
					n, closeMeters, p, buf, want)
			}
		}
	})
}

func clamp(v, lo, hi float64) float64 {
	if math.IsNaN(v) {
		return lo
	}
	return math.Max(lo, math.Min(hi, v))
}
