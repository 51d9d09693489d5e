package rtec_test

import (
	"fmt"
	"log"

	"github.com/insight-dublin/insight/rtec"
)

// A minimal Event Calculus program: a boolean fluent driven by two SDE
// types, evaluated over two query times with a window larger than the
// step so a delayed SDE is recovered (the paper's Figure 2).
func Example() {
	defs, err := rtec.NewBuilder().
		DeclareSDE("enter", "exit").
		Simple(rtec.SimpleFluent{
			Name:   "occupied",
			Inputs: []string{"enter", "exit"},
			Transitions: func(ctx *rtec.Context, out []rtec.Transition) []rtec.Transition {
				for _, e := range ctx.Events("enter") {
					out = append(out, rtec.InitiateAt(e.Key, e.Time))
				}
				for _, e := range ctx.Events("exit") {
					out = append(out, rtec.TerminateAt(e.Key, e.Time))
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		log.Fatal(err)
	}

	engine, err := rtec.NewEngine(defs, rtec.Options{
		WorkingMemory: 120, // window: 120 time points
		Step:          60,  // step: 60 — delayed SDEs get a second chance
	})
	if err != nil {
		log.Fatal(err)
	}

	// happensAt(enter(room1), 10).
	if err := engine.Input(rtec.NewEvent("enter", 10, "room1", nil)); err != nil {
		log.Fatal(err)
	}
	res, err := engine.Query(60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q=60:", res.Intervals("occupied", "room1"))

	// An exit that OCCURRED at 50 arrives only now — within the
	// window of the next query, so it is still incorporated.
	if err := engine.Input(rtec.NewEvent("exit", 50, "room1", nil)); err != nil {
		log.Fatal(err)
	}
	res, err = engine.Query(120)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q=120:", res.Intervals("occupied", "room1"))
	// Output:
	// Q=60: [11, 61)
	// Q=120: [11, 51)
}

// Derived events: recognising instantaneous complex events from SDE
// patterns, like the paper's delayIncrease.
func ExampleEventRule() {
	defs, err := rtec.NewBuilder().
		DeclareSDE("reading").
		Event(rtec.EventRule{
			Name:   "spike",
			Inputs: []string{"reading"},
			Derive: func(ctx *rtec.Context) []rtec.Event {
				var out []rtec.Event
				for _, key := range ctx.EventKeys("reading") {
					evs := ctx.RowsForKey("reading", key).Slice()
					for i := 1; i < len(evs); i++ {
						prev, _ := evs[i-1].Float("v")
						cur, _ := evs[i].Float("v")
						if cur > 2*prev {
							out = append(out, rtec.NewEvent("spike", evs[i].Time, key, nil))
						}
					}
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		log.Fatal(err)
	}
	engine, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 100})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Input(
		rtec.NewEvent("reading", 10, "s1", map[string]any{"v": 5.0}),
		rtec.NewEvent("reading", 20, "s1", map[string]any{"v": 30.0}),
	); err != nil {
		log.Fatal(err)
	}
	res, err := engine.Query(90)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range res.Derived["spike"] {
		fmt.Println("happensAt:", e)
	}
	// Output:
	// happensAt: spike(s1)@20
}
