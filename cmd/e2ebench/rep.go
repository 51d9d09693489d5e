package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
)

// spanBoundary names the root span of one query boundary of the real
// run: the interval from the previous report's delivery to this one's.
const spanBoundary = "boundary"

// flowMapConfig is the traffic-model call the operator workload makes
// in its report callback.
var flowMapConfig = insight.MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4}

// repResult is what one rep — one fresh process — reports to the parent
// on its standard output.
type repResult struct {
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"` // run start to last report delivered
	CPUS      float64   `json:"cpu_s"`  // user+sys over the run
	Mallocs   uint64    `json:"mallocs"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	SDEs      int       `json:"sdes"`
	GapsMs    []float64 `json:"gaps_ms"` // per boundary: delivery minus previous delivery
	// Prints holds one short hash per delivered report's Fingerprint;
	// Digest is the sha256 of the whole fingerprint chain.
	Prints []string `json:"prints"`
	Digest string   `json:"digest"`
	// A traced rep adds the per-layer metrics, the seconds the layers
	// account for (see attribution in layers.go) and its spans.
	Layers       map[string]float64 `json:"layers,omitempty"`
	LayerSeconds map[string]float64 `json:"layer_seconds,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
}

// run is one drive of a workload through its public entry point.
type run struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	gaps     []time.Duration
	reports  []*insight.Report
	flowMaps []time.Duration // operator workload: FlowMap wall per report
	flowObs  int             // observations of the last FlowMap
}

func (r *run) sdes() int {
	n := 0
	for _, rep := range r.reports {
		n += rep.FedEvents
	}
	return n
}

func (r *run) rtecElapsed() time.Duration {
	var d time.Duration
	for _, rep := range r.reports {
		d += rep.Stats.Elapsed
	}
	return d
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metered runs drive between two readings of the process's CPU time
// and malloc count and fills them into the run it returns.
func metered(drive func() (*run, error)) (*run, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	r, err := drive()
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	r.cpu = cpu1 - cpu0
	r.mallocs = after.Mallocs - before.Mallocs
	return r, nil
}

// drivePipeline runs pipe to completion, closed-loop and unpaced, and
// timestamps each report's arrival at the operator sink from outside:
// a poller watches the collector's length. One span per boundary is
// recorded when tr is non-nil.
func drivePipeline(ctx context.Context, pipe *insight.Pipeline, tr *tracer) (*run, error) {
	return metered(func() (*run, error) {
		r := &run{}
		done := make(chan struct{})
		var wg sync.WaitGroup
		start := time.Now()
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := start
			note := func() {
				for len(r.gaps) < pipe.Reports.Len() {
					now := time.Now()
					r.gaps = append(r.gaps, now.Sub(last))
					tr.add(-1, spanBoundary, "insight", len(r.gaps), last, now)
					last = now
				}
			}
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					note()
					return
				case <-tick.C:
					note()
				}
			}
		}()
		reports, err := pipe.Run(ctx)
		close(done)
		wg.Wait()
		if err != nil {
			return nil, err
		}
		r.reports = reports
		for _, g := range r.gaps {
			r.wall += g
		}
		return r, nil
	})
}

// driveOperator replays the pre-collected stream through
// System.RunReplay and calls FlowMap in the report callback. A report
// counts as delivered when its callback returns.
func driveOperator(ctx context.Context, w *workload, sys *insight.System, sdes []dublin.SDE, tr *tracer) (*run, error) {
	return metered(func() (*run, error) {
		r := &run{}
		last := time.Now()
		err := sys.RunReplay(ctx, sdes, w.from, w.until, func(rep *insight.Report) error {
			stepped := time.Now()
			est, err := sys.FlowMap(flowMapConfig)
			if err != nil {
				return err
			}
			now := time.Now()
			r.reports = append(r.reports, rep)
			r.gaps = append(r.gaps, now.Sub(last))
			r.flowMaps = append(r.flowMaps, now.Sub(stepped))
			r.flowObs = est.Observations
			root := tr.add(-1, spanBoundary, "insight", len(r.reports), last, now)
			tr.add(root, "insight.step", "insight", len(r.reports), last, stepped)
			tr.add(root, "gp.flowmap", "gp", len(r.reports), stepped, now)
			r.wall += now.Sub(last)
			last = now
			return nil
		})
		if err != nil {
			return nil, err
		}
		return r, nil
	})
}

// prepared is a workload after set-up, ready for its one run.
type prepared struct {
	w    *workload
	city *dublin.City
	sys  *insight.System
	pipe *insight.Pipeline // pipeline workloads
	// The operator workload's pre-collected stream and what collecting
	// it took; a Pipeline collects its own inside the build.
	sdes    []dublin.SDE
	collect time.Duration
}

// prepare is the set-up every rep pays: city, stream generation,
// insight.New and the pipeline build, up to the point where the first
// SDE could be offered. dur overrides the workload's own durability
// (the ablation ladder runs the durable workload's input without it).
func prepare(w *workload, seed int64, dur *insight.DurableOptions, tr *tracer) (*prepared, error) {
	city, err := dublin.NewCity(w.city(seed))
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, city: city}
	if w.operator {
		p.collect, _ = tr.timed("dublin.collect", "dublin", 0, func() error {
			p.sdes = city.Collect(w.from, w.until)
			return nil
		})
	}
	if p.sys, err = w.system(city, seed); err != nil {
		return nil, err
	}
	if !w.operator {
		if p.pipe, err = w.pipeline(p.sys, dur); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *prepared) drive(ctx context.Context, tr *tracer) (*run, error) {
	if p.w.operator {
		return driveOperator(ctx, p.w, p.sys, p.sdes, tr)
	}
	return drivePipeline(ctx, p.pipe, tr)
}

// fullDurability is the durable workload's own setting: fsync on every
// append, a checkpoint at every boundary (the DurableOptions defaults).
func (w *workload) fullDurability(tmp string) (*insight.DurableOptions, error) {
	if !w.durable {
		return nil, nil
	}
	dir, err := os.MkdirTemp(tmp, "durable-")
	if err != nil {
		return nil, err
	}
	return &insight.DurableOptions{Dir: dir}, nil
}

// timedRep is one untraced rep: set-up, then one run.
func timedRep(ctx context.Context, w *workload, seed int64, tmp string) (*repResult, error) {
	begin := time.Now()
	dur, err := w.fullDurability(tmp)
	if err != nil {
		return nil, err
	}
	p, err := prepare(w, seed, dur, nil)
	if err != nil {
		return nil, err
	}
	setup := time.Since(begin)
	r, err := p.drive(ctx, nil)
	if err != nil {
		return nil, err
	}
	return r.result(setup)
}

// result turns a finished run into the rep's report to the parent.
func (r *run) result(setup time.Duration) (*repResult, error) {
	if len(r.gaps) != len(r.reports) {
		return nil, fmt.Errorf("%d report arrivals seen for %d reports", len(r.gaps), len(r.reports))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &repResult{
		SetupS:    setup.Seconds(),
		WallS:     r.wall.Seconds(),
		CPUS:      r.cpu.Seconds(),
		Mallocs:   r.mallocs,
		PeakRSSMB: rss,
		SDEs:      r.sdes(),
	}
	chain := sha256.New()
	for i, rep := range r.reports {
		res.GapsMs = append(res.GapsMs, float64(r.gaps[i].Nanoseconds())/1e6)
		fp := rep.Fingerprint()
		sum := sha256.Sum256([]byte(fp))
		res.Prints = append(res.Prints, hex.EncodeToString(sum[:8]))
		fmt.Fprintln(chain, fp)
	}
	res.Digest = hex.EncodeToString(chain.Sum(nil))
	return res, nil
}
