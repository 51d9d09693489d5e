// Command trafficmon runs the full INSIGHT pipeline (Figure 1 of the
// paper) over the synthetic Dublin streams: distributed complex event
// recognition, crowdsourced disagreement resolution with online EM,
// and periodic operator reports. Think of it as the demo the paper
// presents, on a terminal instead of an interactive map.
//
// System.Run and RunReplay are the Streams pipeline of Section 3:
// generated or recorded SDEs enter as column batches on the five input
// streams, each query time fires once every stream's arrival watermark
// has passed it and admits the rows that have arrived by it, and the
// report handler runs between boundaries, so the flow map it draws is
// the system as of the report it is given.
//
// Usage:
//
//	trafficmon [-from 7h] [-duration 2h] [-step 5m] [-wm 20m]
//	           [-buses 235] [-sensors 240] [-participants 20]
//	           [-adaptive] [-json]
//	           [-http :8080 [-pace 1s]]     # live operator dashboard
//	           [-buscsv f1 -scatscsv f2]    # replay recorded streams
//
// With -http the operator dashboard of the paper's output requirement
// ("a simple, intuitive interactive map to present all traffic
// information and alerts") is served while monitoring runs, paced by
// -pace per step. With -buscsv/-scatscsv the SDEs are replayed from
// CSV files written by cmd/datagen instead of being generated live
// (the city configuration must match the one the files were generated
// with for ground-truth-dependent components to stay consistent).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dashboard"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("trafficmon: ")
	var (
		from         = flag.Duration("from", 7*time.Hour, "start time of day")
		duration     = flag.Duration("duration", 2*time.Hour, "monitoring duration")
		step         = flag.Duration("step", 5*time.Minute, "query step")
		wm           = flag.Duration("wm", 20*time.Minute, "working memory (trend CEs need > 2 SCATS periods = 12 min)")
		buses        = flag.Int("buses", 235, "bus fleet size (default: quarter scale)")
		sensors      = flag.Int("sensors", 240, "SCATS sensor count")
		participants = flag.Int("participants", 20, "crowdsourcing volunteers (0 disables)")
		adaptive     = flag.Bool("adaptive", true, "self-adaptive recognition (rule-set 3')")
		jsonOut      = flag.Bool("json", false, "emit reports as JSON lines")
		incidents    = flag.Int("incidents", 0, "random daily traffic incidents to inject")
		rules        = flag.Bool("rules", false, "print the compiled CE definition set and exit")
		seed         = flag.Int64("seed", 1, "simulation seed")
		httpAddr     = flag.String("http", "", "serve the operator dashboard on this address")
		pace         = flag.Duration("pace", time.Second, "wall-clock delay per step in dashboard mode")
		busCSV       = flag.String("buscsv", "", "replay bus SDEs from this CSV instead of generating")
		scatsCSV     = flag.String("scatscsv", "", "replay SCATS SDEs from this CSV instead of generating")
	)
	flag.Parse()

	city, err := dublin.NewCity(dublin.Config{
		Seed: *seed, NumBuses: *buses, NumSensors: *sensors, Incidents: *incidents,
	})
	if err != nil {
		log.Fatal(err)
	}

	var vols []insight.SimParticipant
	inters := city.Intersections()
	for i := 0; i < *participants && len(inters) > 0; i++ {
		vols = append(vols, insight.SimParticipant{
			ID:        fmt.Sprintf("vol%02d", i),
			Pos:       inters[(i*7)%len(inters)].Pos,
			ErrorProb: 0.05 + 0.02*float64(i%10),
			Network:   qee.Network(i % 3),
		})
	}

	sys, err := insight.New(insight.Config{
		City:          city,
		Seed:          *seed,
		WorkingMemory: rtec.Time(wm.Seconds()),
		Step:          rtec.Time(step.Seconds()),
		Participants:  vols,
		Traffic: traffic.Config{
			Adaptive:    *adaptive,
			NoisyPolicy: traffic.Pessimistic,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	if *rules {
		fmt.Print(sys.Definitions().Describe())
		return
	}

	start := rtec.Time(from.Seconds())
	end := start + rtec.Time(duration.Seconds())
	fmt.Printf("monitoring Dublin %02d:%02d-%02d:%02d — %d buses, %d sensors, %d volunteers, adaptive=%v\n",
		int(start)/3600, int(start)%3600/60, int(end)/3600, int(end)%3600/60, *buses, *sensors, len(vols), *adaptive)

	// Optional dashboard.
	var dash *dashboard.Server
	if *httpAddr != "" {
		dash, err = dashboard.New(city, sys.Registry())
		if err != nil {
			log.Fatal(err)
		}
		go func() {
			log.Printf("dashboard on http://%s/", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, dash.Handler()); err != nil {
				log.Fatal(err)
			}
		}()
	}

	enc := json.NewEncoder(os.Stdout)
	// The flow picture uses the crowd verdicts as pseudo-readings, as the
	// benchmark's operator workload does. A failure leaves the last map
	// on the dashboard and is logged once per distinct message.
	flowCfg := insight.MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4}
	flowErrs := make(map[string]bool)
	handle := func(r *insight.Report) error {
		if dash != nil {
			dash.Update(r)
			if flows, err := sys.FlowMap(flowCfg); err == nil {
				dash.UpdateFlows(flows)
			} else if !flowErrs[err.Error()] {
				flowErrs[err.Error()] = true
				log.Printf("flow map: %v", err)
			}
			time.Sleep(*pace)
		}
		if *jsonOut {
			return enc.Encode(r)
		}
		fmt.Print(r.String())
		return nil
	}

	if *busCSV != "" || *scatsCSV != "" {
		sdes, err := readReplay(*busCSV, *scatsCSV)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("replaying %d recorded SDEs\n", len(sdes))
		err = sys.RunReplay(context.Background(), sdes, start, end, handle)
	} else {
		err = sys.Run(context.Background(), start, end, handle)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *participants > 0 {
		fmt.Println("\nparticipant reliability estimates (online EM):")
		est := sys.Estimator()
		for _, id := range est.Participants() {
			fmt.Printf("  %s: error probability %.3f (%d queries)\n",
				id, est.ErrorProb(id), est.Queries(id))
		}
	}
}

// readReplay loads and merges recorded SDE files.
func readReplay(busPath, scatsPath string) ([]dublin.SDE, error) {
	var out []dublin.SDE
	load := func(path string, read func(f *os.File) ([]dublin.SDE, error)) error {
		if path == "" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sdes, err := read(f)
		if err != nil {
			return err
		}
		out = append(out, sdes...)
		return nil
	}
	if err := load(busPath, func(f *os.File) ([]dublin.SDE, error) { return dublin.ReadBusCSV(f) }); err != nil {
		return nil, err
	}
	if err := load(scatsPath, func(f *os.File) ([]dublin.SDE, error) { return dublin.ReadScatsCSV(f) }); err != nil {
		return nil, err
	}
	return out, nil
}
