package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/insight-dublin/insight/rtec"
)

// TestIncrementalEquivalenceDublin drives a seeded synthetic Dublin
// stream (move + traffic + crowd SDEs, with arrival delays) through
// the full-recompute and incremental engines over the real CE
// definition set and asserts identical recognition at every query
// time, for both noisy policies and both busCongestion variants.
func TestIncrementalEquivalenceDublin(t *testing.T) {
	const (
		wm   = rtec.Time(1800)
		step = rtec.Time(450) // WM = 4·Step
	)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"crowd-validated", Config{NoisyPolicy: CrowdValidated}},
		{"pessimistic-adaptive", Config{NoisyPolicy: Pessimistic, Adaptive: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Registry = testRegistry(t)
			defs, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mk := func(force bool) *rtec.Engine {
				e, err := rtec.NewEngine(defs, rtec.Options{
					WorkingMemory:      wm,
					Step:               step,
					ForceFullRecompute: force,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			full, inc := mk(true), mk(false)

			rng := rand.New(rand.NewSource(99))
			type timed struct {
				ev      rtec.Event
				arrival rtec.Time
			}
			var stream []timed
			buses := []string{"b1", "b2", "b3"}
			sensors := []struct{ sensor, inter string }{
				{"s1", "i1"}, {"s2", "i1"}, {"s3", "i2"},
			}
			for i := 0; i < 900; i++ {
				tm := rtec.Time(rng.Int63n(6*int64(wm))) + 1
				delay := rtec.Time(rng.Int63n(int64(step)))
				var ev rtec.Event
				switch rng.Intn(5) {
				case 0, 1: // bus move near an intersection or far away
					pos := nearI1
					switch rng.Intn(3) {
					case 1:
						pos = nearI2
					case 2:
						pos = farAway
					}
					ev = Move(tm, buses[rng.Intn(len(buses))], "L1", "op", rng.Int63n(300), pos, 1, rng.Intn(2) == 0)
				case 2, 3: // sensor reading around the thresholds
					s := sensors[rng.Intn(len(sensors))]
					ev = Traffic(tm, s.sensor, s.inter, "A1", 0.1+0.5*rng.Float64(), 200+1000*rng.Float64())
				default: // crowd verdict
					val := Negative
					if rng.Intn(2) == 0 {
						val = Positive
					}
					ev = CrowdVerdict(tm, []string{"i1", "i2"}[rng.Intn(2)], val)
				}
				stream = append(stream, timed{ev: ev, arrival: tm + delay})
			}
			sort.SliceStable(stream, func(i, j int) bool { return stream[i].arrival < stream[j].arrival })

			canon := func(evs []rtec.Event) []string {
				out := make([]string, len(evs))
				for i, e := range evs {
					out[i] = fmt.Sprintf("%s|%s|%d|%q", e.Type, e.Key, int64(e.Time), rtec.CanonicalAttrs(e))
				}
				sort.Strings(out)
				return out
			}

			cursor := 0
			for q := wm; q <= 6*wm; q += step {
				for cursor < len(stream) && stream[cursor].arrival <= q {
					mustInput(t, full, stream[cursor].ev)
					mustInput(t, inc, stream[cursor].ev)
					cursor++
				}
				want := query(t, full, q)
				got := query(t, inc, q)
				if !reflect.DeepEqual(got.Fluents, want.Fluents) {
					t.Fatalf("fluents diverge at q=%d", q)
				}
				if len(got.Derived) != len(want.Derived) {
					t.Fatalf("derived type sets diverge at q=%d", q)
				}
				for typ := range want.Derived {
					if !reflect.DeepEqual(canon(got.Derived[typ]), canon(want.Derived[typ])) {
						t.Fatalf("derived %q diverge at q=%d", typ, q)
					}
				}
				if !reflect.DeepEqual(canon(got.Fresh), canon(want.Fresh)) {
					t.Fatalf("fresh diverge at q=%d", q)
				}
			}
		})
	}
}
