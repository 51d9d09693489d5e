// Command crashbench runs the crash-equivalence campaign — the same
// kill → recover → resume loop behind TestCrashEquivalence — and
// measures what recovery costs: per-epoch wall time to rebuild a
// pipeline from the latest checkpoint plus WAL replay, how large the
// checkpoint it loaded was, how many log records and SDE rows each
// recovery re-consumed, and whether the
// union of reports across all crashed epochs fingerprints identically
// to one uninterrupted run.
//
// Each epoch arms one injected failure (a mid-record WAL tear, a
// torn/fsync-crashed/corrupted checkpoint, or a combined torn
// checkpoint + torn log tail), runs until it fires, and hands the
// surviving disk state to the next epoch. Results go to stdout as a
// table and to -out as JSON for EXPERIMENTS.md.
//
// Usage:
//
//	crashbench [-buses 24] [-sensors 24] [-hours 1] [-kills 20]
//	           [-seed 42] [-out BENCH_recovery.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

type epochRow struct {
	Epoch           int     `json:"epoch"`
	Fault           string  `json:"fault"`
	Resumed         bool    `json:"resumed"`
	CheckpointQ     int64   `json:"checkpoint_q"`
	CheckpointBytes int64   `json:"checkpoint_bytes"`
	ReplayedRecords int     `json:"replayed_records"`
	ReplayedEvents  int     `json:"replayed_events"`
	TornBytes       int64   `json:"torn_bytes"`
	CorruptCkpts    int     `json:"corrupt_checkpoints"`
	Reemitted       int     `json:"reemitted_reports"`
	RecoveryMillis  float64 `json:"recovery_millis"`
	Reports         int     `json:"reports"`
	Completed       bool    `json:"completed"`
}

type benchOut struct {
	Config struct {
		Buses   int     `json:"buses"`
		Sensors int     `json:"sensors"`
		Hours   float64 `json:"hours"`
		Kills   int     `json:"kills"`
		Seed    int64   `json:"seed"`
	} `json:"config"`
	Summary struct {
		Epochs             int     `json:"epochs"`
		WALKills           int     `json:"wal_kills"`
		TornCheckpoints    int     `json:"torn_checkpoints"`
		AfterCheckpoints   int     `json:"after_checkpoints"`
		CorruptCheckpoints int     `json:"corrupt_checkpoints"`
		CombinedEpochs     int     `json:"combined_epochs"`
		BaselineRecords    int     `json:"baseline_records"`
		Mismatches         int     `json:"mismatches"`
		Completed          bool    `json:"completed"`
		MeanRecoveryMillis float64 `json:"mean_recovery_millis"`
		MaxRecoveryMillis  float64 `json:"max_recovery_millis"`
		MeanReplayRecords  float64 `json:"mean_replayed_records"`
		MeanCkptBytes      float64 `json:"mean_checkpoint_bytes"`
		MaxCkptBytes       int64   `json:"max_checkpoint_bytes"`
	} `json:"summary"`
	Epochs []epochRow `json:"epochs"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashbench: ")
	var (
		buses   = flag.Int("buses", 24, "bus fleet size")
		sensors = flag.Int("sensors", 24, "SCATS sensor count")
		hours   = flag.Float64("hours", 1, "monitored duration (from 07:00)")
		kills   = flag.Int("kills", 20, "minimum WAL crash points before the campaign may complete")
		seed    = flag.Int64("seed", 42, "simulation seed")
		out     = flag.String("out", "BENCH_recovery.json", "JSON output path (empty disables)")
	)
	flag.Parse()

	from := rtec.Time(7 * 3600)
	until := from + rtec.Time(*hours*3600)

	city, err := dublin.NewCity(dublin.Config{
		Seed:             *seed,
		NumBuses:         *buses,
		NumSensors:       *sensors,
		Hotspots:         8,
		NoisyBusFraction: 0.25,
	})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "crashbench")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	res, err := insight.RunCrashCampaign(context.Background(), insight.CampaignOptions{
		// Step 450 (vs the usual 900) halves the batch span cap and so
		// roughly doubles the WAL record count — the kill schedule needs
		// the headroom to spread -kills crash points across the log.
		NewSystem: func() (*insight.System, error) {
			return insight.New(insight.Config{
				City:          city,
				Seed:          7,
				WorkingMemory: 1800,
				Step:          450,
				UnpacedReplay: true,
				Traffic: traffic.Config{
					NoisyPolicy: traffic.Pessimistic,
					Adaptive:    true,
				},
			})
		},
		From:  from,
		Until: until,
		Dir:   dir,
		Kills: *kills,
		Seed:  1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("crash-equivalence campaign — %d buses, %d sensors, %.1f h, %d WAL kills minimum\n\n",
		*buses, *sensors, *hours, *kills)

	var bench benchOut
	bench.Config.Buses = *buses
	bench.Config.Sensors = *sensors
	bench.Config.Hours = *hours
	bench.Config.Kills = *kills
	bench.Config.Seed = *seed

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\tfault\tresumed\tckpt q\tckpt B\treplayed\tevents\ttorn B\trecovery\treports")
	var sumMillis, sumReplay, sumCkptBytes float64
	resumed := 0
	for i, ep := range res.Epochs {
		row := epochRow{
			Epoch:           i,
			Fault:           ep.Fault,
			Resumed:         ep.Recovery.Resumed,
			CheckpointQ:     int64(ep.Recovery.CheckpointQ),
			CheckpointBytes: ep.Recovery.CheckpointBytes,
			ReplayedRecords: ep.Recovery.ReplayedRecords,
			ReplayedEvents:  ep.Recovery.ReplayedEvents,
			TornBytes:       ep.Recovery.TornBytes,
			CorruptCkpts:    ep.Recovery.CorruptCheckpoints,
			Reemitted:       ep.Recovery.ReemittedReports,
			RecoveryMillis:  ep.RecoveryMillis,
			Reports:         ep.Reports,
			Completed:       ep.Completed,
		}
		bench.Epochs = append(bench.Epochs, row)
		sumMillis += ep.RecoveryMillis
		if bench.Summary.MaxRecoveryMillis < ep.RecoveryMillis {
			bench.Summary.MaxRecoveryMillis = ep.RecoveryMillis
		}
		if ep.Recovery.Resumed {
			resumed++
			sumReplay += float64(ep.Recovery.ReplayedRecords)
			sumCkptBytes += float64(ep.Recovery.CheckpointBytes)
			bench.Summary.MaxCkptBytes = max(bench.Summary.MaxCkptBytes, ep.Recovery.CheckpointBytes)
		}
		fmt.Fprintf(w, "%d\t%s\t%v\t%d\t%d\t%d\t%d\t%d\t%.2f ms\t%d\n",
			i, ep.Fault, ep.Recovery.Resumed, int64(ep.Recovery.CheckpointQ), ep.Recovery.CheckpointBytes,
			ep.Recovery.ReplayedRecords, ep.Recovery.ReplayedEvents,
			ep.Recovery.TornBytes, ep.RecoveryMillis, ep.Reports)
	}
	w.Flush()

	bench.Summary.Epochs = len(res.Epochs)
	bench.Summary.WALKills = res.WALKills
	bench.Summary.TornCheckpoints = res.TornCheckpoints
	bench.Summary.AfterCheckpoints = res.AfterCheckpoints
	bench.Summary.CorruptCheckpoints = res.CorruptCheckpoints
	bench.Summary.CombinedEpochs = res.CombinedEpochs
	bench.Summary.BaselineRecords = res.BaselineRecords
	bench.Summary.Mismatches = len(res.Mismatches)
	bench.Summary.Completed = res.Completed
	if len(res.Epochs) > 0 {
		bench.Summary.MeanRecoveryMillis = sumMillis / float64(len(res.Epochs))
	}
	if resumed > 0 {
		bench.Summary.MeanReplayRecords = sumReplay / float64(resumed)
		bench.Summary.MeanCkptBytes = sumCkptBytes / float64(resumed)
	}

	fmt.Printf("\n%d epochs: %d WAL kills, %d/%d/%d torn/after/corrupt checkpoints, %d combined\n",
		len(res.Epochs), res.WALKills, res.TornCheckpoints, res.AfterCheckpoints,
		res.CorruptCheckpoints, res.CombinedEpochs)
	fmt.Printf("recovery: mean %.2f ms, max %.2f ms; mean replay %.1f of %d baseline records; checkpoint loaded: mean %.0f B, max %d B\n",
		bench.Summary.MeanRecoveryMillis, bench.Summary.MaxRecoveryMillis,
		bench.Summary.MeanReplayRecords, res.BaselineRecords,
		bench.Summary.MeanCkptBytes, bench.Summary.MaxCkptBytes)
	if len(res.Mismatches) > 0 {
		for _, m := range res.Mismatches {
			fmt.Println("MISMATCH:", m)
		}
		log.Fatalf("crash equivalence violated: %d divergences", len(res.Mismatches))
	}
	fmt.Println("crash equivalence holds: crashed-run reports fingerprint identically to the uninterrupted run")

	if *out != "" {
		data, err := json.MarshalIndent(&bench, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *out)
	}
}
