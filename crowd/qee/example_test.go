package qee_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/geo"
)

// One crowdsourcing query through the MapReduce execution engine:
// connect devices, execute the map phase, read the reduce counts.
func Example() {
	engine := qee.NewEngine(qee.Options{Seed: 1})
	answers := map[string]string{"anna": "yes", "brian": "yes", "ciara": "no"}
	for id, label := range answers {
		label := label
		if err := engine.Connect(qee.Device{
			Participant: crowd.Participant{ID: id},
			Network:     qee.ThreeG,
			Respond: func(qee.Query) (string, time.Duration) {
				return label, 2 * time.Second
			},
		}); err != nil {
			log.Fatal(err)
		}
	}
	exec, err := engine.Execute(context.Background(), qee.Query{
		ID:       "q1",
		Question: "Is there a traffic congestion at O'Connell Bridge?",
		Answers:  []string{"yes", "no"},
		Pos:      geo.At(53.3472, -6.2592),
	}, []crowd.Participant{{ID: "anna"}, {ID: "brian"}, {ID: "ciara"}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reduce counts: yes=%d no=%d\n", exec.Counts["yes"], exec.Counts["no"])
	// Output:
	// reduce counts: yes=2 no=1
}
