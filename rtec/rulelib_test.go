package rtec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// gridRuleSets are the Dublin deployment's rule-set variants.
var gridRuleSets = []struct {
	name string
	cfg  traffic.Config
}{
	{"crowd-validated", traffic.Config{NoisyPolicy: traffic.CrowdValidated}},
	{"pessimistic-adaptive", traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
	{"structured", traffic.Config{NoisyPolicy: traffic.Pessimistic, StructuredIntersections: true}},
}

// TestRuleLibraryMatchesSpec holds one engine running the real Dublin
// rule library to the spec (spec_test.go) at every boundary: every
// rule-set variant, query steps from one window down to a quarter
// window, over a small city whose mediators delay SDEs by up to ten
// minutes, with 6 % of the rows dropped and 6 % delivered twice. The
// engine files each boundary's arrivals block by block, as the
// pipeline's admission does; the spec reads the same deliveries.
func TestRuleLibraryMatchesSpec(t *testing.T) {
	const from, until = rtec.Time(7 * 3600), rtec.Time(8 * 3600)
	const wm = rtec.Time(1800)
	city, err := dublin.NewCity(dublin.Config{
		Seed:             42,
		NumBuses:         60,
		NumSensors:       60,
		Hotspots:         15,
		NoisyBusFraction: 0.25,
		MaxDelay:         600,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(300))
	var sdes []dublin.SDE
	dropped, duplicated := 0, 0
	for _, sde := range city.Collect(from, until) {
		switch r := rng.Float64(); {
		case r < 0.06:
			dropped++
		case r < 0.12:
			duplicated++
			sdes = append(sdes, sde, sde)
		default:
			sdes = append(sdes, sde)
		}
	}
	if dropped == 0 || duplicated == 0 {
		t.Fatalf("%d rows dropped, %d duplicated: the faults are inert", dropped, duplicated)
	}

	for _, rs := range gridRuleSets {
		for _, step := range []rtec.Time{wm, wm / 2, wm / 4} {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				tcfg := rs.cfg
				tcfg.Registry = reg
				tcfg.CrowdWindow = step + 600
				defs, err := traffic.Build(tcfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: wm})
				if err != nil {
					t.Fatal(err)
				}
				spec := rtec.NewSpec(defs, wm)
				var fed []rtec.SpecSDE
				late, recognised, next := 0, 0, 0
				for q := from + step; q <= until; q += step {
					var due []dublin.SDE
					for ; next < len(sdes) && sdes[next].Arrival <= q; next++ {
						due = append(due, sdes[next])
						if sdes[next].Event.Time <= q-step {
							late++
						}
					}
					batched, err := dublin.BatchSDEs(due, 512, step/2)
					if err != nil {
						t.Fatal(err)
					}
					for _, bs := range batched {
						for _, b := range bs.Batches {
							blk := dublin.Block(b)
							if err := eng.InputBlockRows(blk, nil); err != nil {
								t.Fatal(err)
							}
							for r := 0; r < b.Len(); r++ {
								fed = append(fed, rtec.SpecSDE{Ev: blk.Event(r), Arrival: rtec.Time(b.Arrivals[r])})
							}
							defer b.Release()
						}
					}
					got, err := eng.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want := spec.Query(fed, q)
					if d := rtec.SpecDiff(got, want); d != "" {
						t.Fatalf("q=%d: engine differs from the spec, %s", q, d)
					}
					recognised += len(want.Fresh)
				}
				if late == 0 || recognised == 0 {
					t.Fatalf("%d late arrivals, %d fresh events: the comparison is vacuous", late, recognised)
				}
			})
		}
	}
}
