package insight_test

import (
	"context"
	"fmt"
	"log"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/traffic"
)

// Quickstart: assemble the INSIGHT system on a small synthetic Dublin
// and monitor one rush-hour period. This is the smallest end-to-end
// use of the public API: generate streams, recognise complex events,
// resolve disagreements with the crowd, and print operator reports.
// Run it with: go test -run Example_quickstart -v .
func Example_quickstart() {
	// A quarter-scale city: 100 buses, 100 SCATS sensors, seeded so
	// every run is identical.
	city, err := dublin.NewCity(dublin.Config{
		Seed:       1,
		NumBuses:   100,
		NumSensors: 100,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A dozen volunteers near the first intersections, answering
	// crowdsourcing queries from their phones.
	var volunteers []insight.SimParticipant
	for i, in := range city.Intersections() {
		if i >= 12 {
			break
		}
		volunteers = append(volunteers, insight.SimParticipant{
			ID:        fmt.Sprintf("vol%02d", i),
			Pos:       in.Pos,
			ErrorProb: 0.1,
			Network:   qee.Network(i % 3),
		})
	}

	sys, err := insight.New(insight.Config{
		City:          city,
		Seed:          1,
		WorkingMemory: 1200, // 20 min window
		Step:          600,  // 10 min step: late SDEs are still caught
		Participants:  volunteers,
		Traffic: traffic.Config{
			Adaptive:    true, // rule-set (3′): drop unreliable buses
			NoisyPolicy: traffic.Pessimistic,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Monitor 08:00–09:00.
	pipe, _, err := sys.Pipeline(8*3600, 9*3600, insight.PipelineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reports {
		fmt.Print(r.String())
	}

	// After the run, the traffic model fills in the rest of the city.
	est, err := sys.FlowMap(insight.MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraffic model: flow estimates at %d junctions from %d sensor readings\n",
		len(est.Values), est.Observations)
	// Output:
	// Q=29400: 2444 SDEs, 3 congested intersections, 4 bus-congestion areas, 3 disagreements, 5 noisy buses, 5 crowd rounds, 8 alerts
	//   [congestion] t=29400 SCATS intersection int0002 congested
	//   [congestion] t=29400 SCATS intersection int0023 congested
	//   [congestion] t=29400 SCATS intersection int0035 congested
	//   [disagree] t=28886 bus bus33061 disagrees with SCATS at int0009
	//   [disagree] t=29057 bus bus33029 disagrees with SCATS at int0042
	//   [disagree] t=29088 bus bus33059 disagrees with SCATS at int0022
	//   [disagree] t=29181 bus bus33028 disagrees with SCATS at int0045
	//   [disagree] t=29292 bus bus33064 disagrees with SCATS at int0006
	//   [crowd] int0006: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0009: "negative" (confidence 0.95, 5 participants)
	//   [crowd] int0022: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0042: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0045: "negative" (confidence 1.00, 5 participants)
	// Q=30000: 2537 SDEs, 3 congested intersections, 3 bus-congestion areas, 1 disagreements, 8 noisy buses, 2 crowd rounds, 12 alerts
	//   [congestionInTheMake] t=30000 density rising at sensor scats0020 — congestion in the make
	//   [congestionInTheMake] t=30000 density rising at sensor scats0035 — congestion in the make
	//   [congestionInTheMake] t=30000 density rising at sensor scats0037 — congestion in the make
	//   [congestionInTheMake] t=30000 density rising at sensor scats0064 — congestion in the make
	//   [congestionInTheMake] t=30000 density rising at sensor scats0087 — congestion in the make
	//   [congestion] t=30000 SCATS intersection int0002 congested
	//   [congestion] t=30000 SCATS intersection int0023 congested
	//   [congestion] t=30000 SCATS intersection int0035 congested
	//   [disagree] t=29409 bus bus33054 disagrees with SCATS at int0023
	//   [disagree] t=29839 bus bus33015 disagrees with SCATS at int0023
	//   [disagree] t=29859 bus bus33015 disagrees with SCATS at int0023
	//   [disagree] t=29940 bus bus33006 disagrees with SCATS at int0006
	//   [crowd] int0006: "negative" (confidence 0.99, 5 participants)
	//   [crowd] int0023: "negative" (confidence 1.00, 5 participants)
	// Q=30600: 2524 SDEs, 3 congested intersections, 4 bus-congestion areas, 2 disagreements, 7 noisy buses, 3 crowd rounds, 14 alerts
	//   [congestionInTheMake] t=30600 density rising at sensor scats0008 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0010 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0024 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0063 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0064 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0065 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0083 — congestion in the make
	//   [congestionInTheMake] t=30600 density rising at sensor scats0098 — congestion in the make
	//   [congestion] t=30600 SCATS intersection int0002 congested
	//   [congestion] t=30600 SCATS intersection int0035 congested
	//   [congestion] t=30600 SCATS intersection int0044 congested
	//   [disagree] t=30004 bus bus33015 disagrees with SCATS at int0023
	//   [disagree] t=30137 bus bus33029 disagrees with SCATS at int0012
	//   [disagree] t=30144 bus bus33066 disagrees with SCATS at int0022
	//   [crowd] int0012: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0022: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0023: "negative" (confidence 0.99, 5 participants)
	// Q=31200: 2527 SDEs, 2 congested intersections, 4 bus-congestion areas, 2 disagreements, 8 noisy buses, 3 crowd rounds, 11 alerts
	//   [congestionInTheMake] t=31200 density rising at sensor scats0000 — congestion in the make
	//   [congestionInTheMake] t=31200 density rising at sensor scats0017 — congestion in the make
	//   [congestionInTheMake] t=31200 density rising at sensor scats0033 — congestion in the make
	//   [congestionInTheMake] t=31200 density rising at sensor scats0064 — congestion in the make
	//   [congestionInTheMake] t=31200 density rising at sensor scats0086 — congestion in the make
	//   [congestionInTheMake] t=31200 density rising at sensor scats0090 — congestion in the make
	//   [congestion] t=31200 SCATS intersection int0002 congested
	//   [congestion] t=31200 SCATS intersection int0035 congested
	//   [disagree] t=31033 bus bus33073 disagrees with SCATS at int0006
	//   [disagree] t=31035 bus bus33018 disagrees with SCATS at int0033
	//   [disagree] t=31103 bus bus33066 disagrees with SCATS at int0022
	//   [crowd] int0006: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0022: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0033: "positive" (confidence 1.00, 5 participants)
	// Q=31800: 2564 SDEs, 2 congested intersections, 3 bus-congestion areas, 2 disagreements, 7 noisy buses, 5 crowd rounds, 17 alerts
	//   [congestionInTheMake] t=31800 density rising at sensor scats0001 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0003 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0007 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0010 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0015 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0016 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0035 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0046 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0051 — congestion in the make
	//   [congestionInTheMake] t=31800 density rising at sensor scats0084 — congestion in the make
	//   [congestion] t=31800 SCATS intersection int0035 congested
	//   [congestion] t=31800 SCATS intersection int0044 congested
	//   [disagree] t=31206 bus bus33018 disagrees with SCATS at int0033
	//   [disagree] t=31562 bus bus33006 disagrees with SCATS at int0006
	//   [disagree] t=31585 bus bus33028 disagrees with SCATS at int0045
	//   [disagree] t=31718 bus bus33066 disagrees with SCATS at int0011
	//   [disagree] t=31740 bus bus33029 disagrees with SCATS at int0012
	//   [crowd] int0006: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0011: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0012: "negative" (confidence 1.00, 5 participants)
	//   [crowd] int0033: "negative" (confidence 0.78, 5 participants)
	//   [crowd] int0045: "negative" (confidence 1.00, 5 participants)
	// Q=32400: 2547 SDEs, 2 congested intersections, 2 bus-congestion areas, 1 disagreements, 8 noisy buses, 2 crowd rounds, 10 alerts
	//   [congestionInTheMake] t=32400 density rising at sensor scats0017 — congestion in the make
	//   [congestionInTheMake] t=32400 density rising at sensor scats0060 — congestion in the make
	//   [congestionInTheMake] t=32400 density rising at sensor scats0066 — congestion in the make
	//   [congestionInTheMake] t=32400 density rising at sensor scats0096 — congestion in the make
	//   [congestionInTheMake] t=32400 density rising at sensor scats0097 — congestion in the make
	//   [congestion] t=32400 SCATS intersection int0002 congested
	//   [congestion] t=32400 SCATS intersection int0035 congested
	//   [disagree] t=31879 bus bus33022 disagrees with SCATS at int0002
	//   [disagree] t=32039 bus bus33042 disagrees with SCATS at int0006
	//   [disagree] t=32282 bus bus33099 disagrees with SCATS at int0002
	//   [crowd] int0002: "negative" (confidence 0.99, 5 participants)
	//   [crowd] int0006: "negative" (confidence 0.99, 5 participants)
	//
	// traffic model: flow estimates at 792 junctions from 100 sensor readings
}
