package main

import (
	"context"
	"fmt"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// figure4 regenerates Figure 4: CE recognition over one window of
// growing working memory (Step = WM) from the morning rush, static
// against self-adaptive, on the paper's full-scale city split over the
// four Dublin regions — an insight.System in its default configuration
// driven through Pipeline. The recognised counts are scored; the wall times
// (Report.Stats.Elapsed, one run per point) are printed, not scored.
func figure4(t *table) error {
	const from = 7 * 3600
	cfg := dublin.Config{Seed: 1, NumBuses: 942, NumSensors: 966}
	city, err := dublin.NewCity(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(t.out, "Figure 4 — CE recognition time vs working memory\n")
	fmt.Fprintf(t.out, "city: %d buses, %d SCATS sensors, 4 partitions, one run per point\n\n", cfg.NumBuses, cfg.NumSensors)

	w := t.grid("WM\tSDEs\tstatic CEs\tstatic periods\tadaptive CEs\tadaptive periods\tstatic\tself-adaptive\toverhead")
	for _, wmMin := range []int{10, 30, 50, 70, 90, 110} {
		wm := rtec.Time(wmMin * 60)
		static, err := recognise(city, false, from, wm)
		if err != nil {
			return err
		}
		adaptive, err := recognise(city, true, from, wm)
		if err != nil {
			return err
		}
		row := fmt.Sprintf("%d min", wmMin)
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%.3fs\t%.3fs\t%+.1f%%\n", row,
			t.score(row, "SDEs", "%.0f", float64(static.fed)),
			t.score(row, "static CEs", "%.0f", float64(static.derived)),
			t.score(row, "static periods", "%.0f", float64(static.periods)),
			t.score(row, "adaptive CEs", "%.0f", float64(adaptive.derived)),
			t.score(row, "adaptive periods", "%.0f", float64(adaptive.periods)),
			static.elapsed.Seconds(), adaptive.elapsed.Seconds(),
			100*(adaptive.elapsed.Seconds()-static.elapsed.Seconds())/static.elapsed.Seconds())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(t.out, "\nCEs/periods: derived events and maximal fluent intervals; static/self-adaptive: query time (not scored)")
	fmt.Fprintln(t.out, "Shapes to check against the paper: time grows ~linearly with WM; self-adaptive recognition")
	fmt.Fprintln(t.out, "has minimal overhead; every point stays well below the window length (real-time recognition).")
	return nil
}

// recognition is what one Figure 4 run admitted and recognised, and the
// time its query took.
type recognition struct {
	fed, derived, periods int
	elapsed               time.Duration
}

// recognise runs one query over [from, from+wm) with the static or the
// self-adaptive rule set.
func recognise(city *dublin.City, adaptive bool, from, wm rtec.Time) (recognition, error) {
	var r recognition
	sys, err := insight.New(insight.Config{
		City:          city,
		WorkingMemory: wm,
		Step:          wm,
		Traffic:       traffic.Config{Adaptive: adaptive, NoisyPolicy: traffic.Pessimistic},
	})
	if err != nil {
		return r, err
	}
	pipe, _, err := sys.Pipeline(from, from+wm, insight.PipelineOptions{OnReport: func(rep *insight.Report) error {
		r.fed += rep.FedEvents
		r.derived += rep.Stats.DerivedEvents
		r.periods += rep.Stats.FluentPeriods
		r.elapsed += rep.Stats.Elapsed
		return nil
	}})
	if err != nil {
		return r, err
	}
	_, err = pipe.Run(context.Background())
	return r, err
}
