// Command trafficmon runs the full INSIGHT pipeline (Figure 1 of the
// paper) over the synthetic Dublin streams: distributed complex event
// recognition, crowdsourced disagreement resolution with online EM,
// and periodic operator reports. Think of it as the demo the paper
// presents, on a terminal instead of an interactive map.
//
// System.Pipeline builds the Streams pipeline of Section 3: generated
// or recorded SDEs enter as column batches on the five input streams,
// each query time fires once every stream's arrival watermark has
// passed it and admits the rows that have arrived by it, and the report
// handler runs between boundaries, so the flow map it draws is the
// system as of the report it is given.
//
// Usage:
//
//	trafficmon [-from 7h] [-duration 2h] [-step 5m] [-wm 20m]
//	           [-buses 235] [-sensors 240] [-participants 20]
//	           [-adaptive] [-json]
//	           [-http :8080 [-pace 1s]]     # live operator dashboard
//	           [-buscsv f1 -scatscsv f2]    # replay recorded streams
//	           [-wal dir]                   # durable: log, checkpoint, resume
//
// With -http the operator dashboard of the paper's output requirement
// ("a simple, intuitive interactive map to present all traffic
// information and alerts") is served while monitoring runs, paced by
// -pace per step. With -buscsv/-scatscsv the SDEs are replayed from
// CSV files written by cmd/datagen instead of being generated live
// (the city configuration must match the one the files were generated
// with for ground-truth-dependent components to stay consistent). With
// -wal every consumed SDE envelope is logged under dir and the system
// checkpoints at each query boundary; a run started again on the same
// directory and flags resumes from its last checkpoint, prints one line
// saying what recovery did, and first re-prints the reports the killed
// run may not have delivered (keep the newest report per query time).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
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
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the binary: it parses args, monitors and writes to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("trafficmon", flag.ContinueOnError)
	var (
		from         = flags.Duration("from", 7*time.Hour, "start time of day")
		duration     = flags.Duration("duration", 2*time.Hour, "monitoring duration")
		step         = flags.Duration("step", 5*time.Minute, "query step")
		wm           = flags.Duration("wm", 20*time.Minute, "working memory (trend CEs need > 2 SCATS periods = 12 min)")
		buses        = flags.Int("buses", 235, "bus fleet size (default: quarter scale)")
		sensors      = flags.Int("sensors", 240, "SCATS sensor count")
		participants = flags.Int("participants", 20, "crowdsourcing volunteers (0 disables)")
		adaptive     = flags.Bool("adaptive", true, "self-adaptive recognition (rule-set 3')")
		jsonOut      = flags.Bool("json", false, "emit reports as JSON lines")
		incidents    = flags.Int("incidents", 0, "random daily traffic incidents to inject")
		rules        = flags.Bool("rules", false, "print the compiled CE definition set and exit")
		seed         = flags.Int64("seed", 1, "simulation seed")
		httpAddr     = flags.String("http", "", "serve the operator dashboard on this address")
		pace         = flags.Duration("pace", time.Second, "wall-clock delay per step in dashboard mode")
		busCSV       = flags.String("buscsv", "", "replay bus SDEs from this CSV instead of generating")
		scatsCSV     = flags.String("scatscsv", "", "replay SCATS SDEs from this CSV instead of generating")
		walDir       = flags.String("wal", "", "log SDEs and checkpoint under this directory, resuming from what it holds")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	city, err := dublin.NewCity(dublin.Config{
		Seed: *seed, NumBuses: *buses, NumSensors: *sensors, Incidents: *incidents,
	})
	if err != nil {
		return err
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
		Shards:        4, // the tier the shard equivalence gates pin
		Participants:  vols,
		Traffic: traffic.Config{
			Adaptive:    *adaptive,
			NoisyPolicy: traffic.Pessimistic,
		},
	})
	if err != nil {
		return err
	}

	if *rules {
		_, err := fmt.Fprint(stdout, sys.Definitions().Describe())
		return err
	}

	start := rtec.Time(from.Seconds())
	end := start + rtec.Time(duration.Seconds())
	fmt.Fprintf(stdout, "monitoring Dublin %02d:%02d-%02d:%02d — %d buses, %d sensors, %d volunteers, adaptive=%v\n",
		int(start)/3600, int(start)%3600/60, int(end)/3600, int(end)%3600/60, *buses, *sensors, len(vols), *adaptive)

	// Optional dashboard, bound before monitoring starts so that a busy
	// address is run's error.
	var dash *dashboard.Server
	if *httpAddr != "" {
		if dash, err = dashboard.New(city); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: dash.Handler()}
		defer srv.Close()
		go func() {
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("dashboard: %v", err)
			}
		}()
		fmt.Fprintf(stdout, "dashboard on http://%s/\n", ln.Addr())
	}

	enc := json.NewEncoder(stdout)
	// The flow picture uses the crowd verdicts as pseudo-readings, as the
	// benchmark's operator workload does. A failure leaves the last map
	// on the dashboard and is logged once per distinct message.
	flowCfg := insight.MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4}
	flowErrs := make(map[string]bool)
	opt := insight.PipelineOptions{OnReport: func(r *insight.Report) error {
		if dash != nil {
			dash.Update(r)
			if flows, err := sys.FlowMap(flowCfg); err == nil {
				dash.UpdateFlows(flows)
			} else if !flowErrs[err.Error()] {
				flowErrs[err.Error()] = true
				log.Printf("flow map: %v", err)
			}
			pacer := time.NewTimer(*pace)
			defer pacer.Stop()
			select {
			case <-pacer.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if *jsonOut {
			return enc.Encode(r)
		}
		_, err := fmt.Fprint(stdout, r.String())
		return err
	}}
	if *walDir != "" {
		opt.Durable = &insight.DurableOptions{Dir: *walDir}
	}
	if *busCSV != "" || *scatsCSV != "" {
		if opt.Replay, err = readReplay(*busCSV, *scatsCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replaying %d recorded SDEs\n", len(opt.Replay))
	}
	pipe, info, err := sys.Pipeline(start, end, opt)
	if err != nil {
		return err
	}
	if dash != nil {
		dash.Watch(pipe.Topology)
	}
	if info != nil {
		fmt.Fprintln(stdout, recoveryLine(info))
	}
	if _, err := pipe.Run(ctx); err != nil {
		return err
	}

	if *participants > 0 {
		fmt.Fprintln(stdout, "\nparticipant reliability estimates (online EM):")
		est := sys.Estimator()
		for _, id := range est.Participants() {
			fmt.Fprintf(stdout, "  %s: error probability %.3f (%d queries)\n",
				id, est.ErrorProb(id), est.Queries(id))
		}
	}
	return nil
}

// recoveryLine renders what a durable start's recovery found and did,
// every RecoveryInfo field.
func recoveryLine(info *insight.RecoveryInfo) string {
	state := "fresh start"
	if info.Resumed {
		state = "resumed"
	}
	return fmt.Sprintf("wal: %s at checkpoint q=%d (%d B); rebuilt %d events, replayed %d records (%d events); "+
		"%d torn bytes, %d corrupt checkpoints, %d envelopes skipped; frontier %d",
		state, int64(info.CheckpointQ), info.CheckpointBytes, info.RebuiltEvents, info.ReplayedRecords, info.ReplayedEvents,
		info.TornBytes, info.CorruptCheckpoints, info.SkippedEnvelopes, info.WALFrontier)
}

// readReplay loads and merges recorded SDE files. The result is
// non-nil even when the files hold no SDE: a nil Replay means generate.
func readReplay(busPath, scatsPath string) ([]dublin.SDE, error) {
	out := []dublin.SDE{}
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
