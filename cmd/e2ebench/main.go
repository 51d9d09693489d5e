// Command e2ebench is the repository's end-to-end benchmark: four named
// workloads driven through the real public entry points —
// System.BuildDurablePipeline/BuildPipeline + Pipeline.Run, and
// System.RunReplay + FlowMap — closed-loop, by one in-process driver,
// with their outputs checked. BENCHMARK.json at the repository root
// names the workloads, the metrics, their units and their regression
// bounds; README.md says why each workload exists and what each layer
// metric should move.
//
// Every rep is a fresh process (this binary re-executed), so set-up is
// paid and measured per rep and no heap or GC state carries over. The
// end-to-end metrics are medians over the timed reps with tracing off.
// With -trace 1 one more rep runs with span recording on and then times
// calls into each layer's public functions on the same input; that rep
// gives the per-layer metrics and, against an untraced rep, the tracing
// overhead.
//
// Usage (from the repository root):
//
//	go run ./cmd/e2ebench                                  # all workloads, untraced then traced
//	go run ./cmd/e2ebench -workload dublin1x-late -trace 0 # one workload, end-to-end metrics only
//	go run ./cmd/e2ebench -workload dublin1x-late -trace 1 # its traced run, per-layer metrics only
//	go run ./cmd/e2ebench -selfcheck                       # the untraced set twice, medians compared
//	go run ./cmd/e2ebench -update-golden                   # rewrite golden.json (seed 42)
//
// With one workload and an explicit -trace the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}. The
// command exits non-zero when any report is missing or wrong.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
)

// goldenSeed is the seed golden.json's fingerprint-chain digests were
// taken at; any other seed is checked for rep-to-rep equality only.
const goldenSeed = 42

const goldenPath = "cmd/e2ebench/golden.json"

//go:embed golden.json
var goldenJSON []byte

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system would see, every one
// reported on every workload. The issue's eighth, failed_share, is the
// result line's failed/attempted: it is 0 on a correct run, and the
// benchmark contract bounds a metric as a share of its median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sde_per_s", "SDE/s"},
	{"boundary_ms_p50", "ms"},
	{"boundary_ms_p90", "ms"},
	{"cpu_us_per_sde", "us"},
	{"allocs_per_sde", "1"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced rep's metrics. A metric is 0 on a workload
// whose real path does not go through its layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"dublin.collect_ns_per_sde", "ns"},
		{"streams.transport_ns_per_sde", "ns"},
		{"streams.envelopes", "count"},
		{"streams.rows_per_envelope", "1"},
		{"wal.encode_ns_per_sde", "ns"},
		{"wal.append_us_per_record", "us"},
		{"wal.fsync_us_per_record", "us"},
		{"wal.bytes_per_sde", "B"},
		{"wal.replay_ns_per_sde", "ns"},
		{"rtec.ingest_ns_per_sde", "ns"},
		{"rtec.input_event_ns_per_sde", "ns"},
		{"rtec.query_ms_per_boundary", "ms"},
		{"rtec.query_ns_per_window_sde", "ns"},
		{"rtec.resident_bytes_per_sde", "B"},
		{"rtec.query_alloc_bytes_per_boundary", "B"},
		{"rtec.snapshot_ms", "ms"},
		{"rtec.restore_ms", "ms"},
	}
	for _, rule := range append(append([]string(nil), ruleNames...), "other") {
		defs = append(defs, metricDef{"traffic.rule_ms." + rule, "ms"})
	}
	return append(defs,
		metricDef{"traffic.rules_share_of_query", "1"},
		metricDef{"insight.checkpoint_ms_per_boundary", "ms"},
		metricDef{"insight.wal_stage_ms_per_boundary", "ms"},
		metricDef{"insight.pipeline_overhead_ns_per_sde", "ns"},
		metricDef{"insight.step_nonrtec_ms_per_boundary", "ms"},
		metricDef{"insight.recover_ms", "ms"},
		metricDef{"crowd.rounds", "count"},
		metricDef{"crowd.round_us", "us"},
		metricDef{"crowd.rounds_per_boundary", "1"},
		metricDef{"gp.flowmap_first_ms", "ms"},
		metricDef{"gp.flowmap_ms", "ms"},
		metricDef{"gp.observations", "count"},
		metricDef{"trace.attributed_share", "1"},
		metricDef{"trace.overhead_share", "1"},
	)
}()

// metricValue is one reported metric; Reps holds the per-rep values an
// end-to-end median was taken over.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Reps  []float64 `json:"reps,omitempty"`
}

// workloadResult is one workload's outcome in the -out document.
type workloadResult struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"` // query boundaries expected over the checked reps
	Failed    int    `json:"failed"`    // of those: missing, from a failed run, or with a wrong fingerprint
	Reps      int    `json:"reps"`
	SDEs      int    `json:"sdes"`
	// BoundarySamples is the number of boundary service times behind
	// boundary_ms_p50/p90, pooled over the timed reps.
	BoundarySamples int                    `json:"boundary_samples"`
	Digest          string                 `json:"digest"`
	EndToEnd        map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer        map[string]metricValue `json:"per_layer,omitempty"`
	// LayerSeconds is what each layer accounts for on the whole stream
	// in the traced rep, next to the untraced wall it is compared with.
	LayerSeconds map[string]float64 `json:"layer_seconds,omitempty"`
	UntracedWall float64            `json:"untraced_wall_s,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
}

type document struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// resultLine is the last line of standard output the driver reads; its
// metrics carry value and unit only.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type bench struct {
	ctx     context.Context
	exe     string
	seed    int64
	seconds int
	minReps int
	mini    bool
	tmp     string
	// golden holds the fingerprint-chain digests to hold the first rep
	// against; nil when this run's inputs are not the ones they were
	// taken on.
	golden map[string]string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	correct, err := command(ctx)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
	}
	if err != nil || !correct {
		os.Exit(1)
	}
}

// command is the whole command; correct is false when any boundary failed.
func command(ctx context.Context) (correct bool, err error) {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Int64("seed", goldenSeed, "workload seed; the program under test sees only the inputs generated from it")
		seconds      = flag.Int("seconds", 15, "keep starting timed reps until this much time has been measured")
		reps         = flag.Int("reps", 3, "minimum number of timed reps")
		trace        = flag.Int("trace", -1, "0: untraced reps, end-to-end metrics; 1: the traced run, per-layer metrics; default both")
		out          = flag.String("out", "", "also write the metrics (and the traced run's spans) to this JSON file")
		selfcheck    = flag.Bool("selfcheck", false, "run the untraced set twice and compare the medians within the bounds in BENCHMARK.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run (seed 42, from the repository root)")
		mini         = flag.Bool("mini", false, "miniature scale (24 buses, 24 sensors, one simulated hour): the smoke test's")
		tmpFlag      = flag.String("tmp", ".", "directory to create the scratch directory in")
		rep          = flag.String("rep", "", "internal: run one rep of -workload (timed or traced) and print its result")
	)
	flag.Parse()

	selected := append([]workload(nil), workloads...)
	if *workloadFlag != "all" {
		w, err := findWorkload(*workloadFlag)
		if err != nil {
			return false, err
		}
		selected = []workload{*w}
	}
	if *mini {
		for i := range selected {
			selected[i] = selected[i].miniature()
		}
	}
	if *rep != "" {
		return true, childMain(ctx, *rep, &selected[0], *seed, *tmpFlag)
	}

	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// Every scratch directory lives under one root that is removed on
	// every way out of this function.
	tmp, err := os.MkdirTemp(*tmpFlag, ".e2ebench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	golden := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return false, fmt.Errorf("golden.json: %w", err)
	}
	b := &bench{ctx: ctx, exe: exe, seed: *seed, seconds: *seconds, minReps: *reps, mini: *mini, tmp: tmp}
	switch {
	case *updateGolden && (b.seed != goldenSeed || b.mini):
		return false, fmt.Errorf("-update-golden needs full scale and -seed %d", goldenSeed)
	case *updateGolden:
		*trace = 0
	case b.seed == goldenSeed && !b.mini:
		b.golden = golden
	}
	if *selfcheck {
		return b.selfcheck(selected)
	}

	doc := document{Seed: b.seed, Seconds: b.seconds}
	correct = true
	for i := range selected {
		res, err := b.runWorkload(&selected[i], *trace != 1, *trace != 0)
		if err != nil {
			return false, fmt.Errorf("%s: %w", selected[i].name, err)
		}
		res.print()
		correct = correct && res.Correct
		doc.Workloads = append(doc.Workloads, *res)
		golden[res.Name] = res.Digest
	}
	if *out != "" {
		if err := writeJSON(*out, doc); err != nil {
			return false, err
		}
	}
	if *updateGolden && correct {
		if err := writeJSON(goldenPath, golden); err != nil {
			return false, err
		}
		fmt.Println("wrote", goldenPath)
	}
	if len(selected) == 1 && *trace >= 0 {
		res := doc.Workloads[0]
		metrics := res.EndToEnd
		if *trace == 1 {
			metrics = res.PerLayer
		}
		line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue, len(metrics))}
		for name, m := range metrics {
			line.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
		}
		buf, err := json.Marshal(line)
		if err != nil {
			return false, err
		}
		fmt.Println(string(buf))
	}
	return correct, nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// childMain is one rep: the process the parent started for it.
func childMain(ctx context.Context, mode string, w *workload, seed int64, tmp string) error {
	var res *repResult
	var err error
	switch mode {
	case "timed":
		res, err = timedRep(ctx, w, seed, tmp)
	case "traced":
		res, err = tracedRep(ctx, w, seed, tmp)
	default:
		err = fmt.Errorf("unknown rep mode %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// rep starts one rep in a fresh process and waits for its result.
func (b *bench) rep(w *workload, mode string, mini bool) (*repResult, error) {
	args := []string{"-rep", mode, "-workload", w.name, "-seed", strconv.FormatInt(b.seed, 10), "-tmp", b.tmp}
	if mini {
		args = append(args, "-mini")
	}
	cmd := exec.CommandContext(b.ctx, b.exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep: %w", mode, err)
	}
	res := &repResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s rep result: %w", mode, err)
	}
	return res, nil
}

// runWorkload measures one workload: the timed reps for the end-to-end
// metrics, the traced rep (with one untraced rep to compare it with)
// for the per-layer metrics.
func (b *bench) runWorkload(w *workload, untraced, traced bool) (*workloadResult, error) {
	// One discarded warm-up rep at miniature scale: it pages the binary
	// in and touches the scratch directory. A full-size one would cost a
	// quarter of the driver's time budget.
	if _, err := b.rep(w, "timed", true); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	expected := w.boundaries()
	res := &workloadResult{Name: w.name}
	var checked []*repResult
	// check counts a rep's boundaries as attempted and the ones that
	// went wrong as failed: all of them when the run itself failed.
	check := func(r *repResult, err error) {
		res.Attempted += expected
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			res.Failed += expected
			return
		}
		checked = append(checked, r)
	}

	// untracedWall is what the traced rep is compared with: the median
	// wall of the timed reps, or of one rep run for the purpose.
	var untracedWall float64
	if untraced {
		var measured float64
		var reps []*repResult
		for len(reps) < b.minReps || measured < float64(b.seconds) {
			r, err := b.rep(w, "timed", b.mini)
			check(r, err)
			if err != nil {
				break
			}
			reps = append(reps, r)
			measured += r.SetupS + r.WallS
		}
		if len(reps) > 0 {
			res.Reps = len(reps)
			res.EndToEnd = endToEndMetrics(reps)
			walls := make([]float64, len(reps))
			for i, r := range reps {
				res.BoundarySamples += len(r.GapsMs)
				walls[i] = r.WallS
			}
			untracedWall = quantile(walls, 0.5)
		}
	}
	if traced {
		if untracedWall == 0 {
			r, err := b.rep(w, "timed", b.mini)
			check(r, err)
			if err == nil {
				untracedWall = r.WallS
			}
		}
		if untracedWall > 0 {
			tr, err := b.rep(w, "traced", b.mini)
			check(tr, err)
			if err == nil {
				res.PerLayer = perLayerMetrics(untracedWall, tr)
				res.LayerSeconds, res.UntracedWall, res.Spans = tr.LayerSeconds, untracedWall, tr.Spans
			}
		}
	}

	if len(checked) > 0 {
		first := checked[0]
		res.SDEs, res.Digest = first.SDEs, first.Digest
		wrongGolden := b.golden != nil && b.golden[w.name] != first.Digest
		for _, r := range checked {
			for k := 0; k < expected; k++ {
				if k >= len(r.Prints) || k >= len(first.Prints) || r.Prints[k] != first.Prints[k] || wrongGolden {
					res.Failed++
				}
			}
		}
		if wrongGolden {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: fingerprint chain %s differs from golden.json\n", w.name, first.Digest)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEndMetrics are medians over the timed reps. The boundary
// percentiles are taken per rep and then the median over reps, like
// every other metric: one slow rep then moves them as little as it
// moves the rest.
func endToEndMetrics(reps []*repResult) map[string]metricValue {
	perRep := map[string]func(r *repResult) float64{
		"setup_s":         func(r *repResult) float64 { return r.SetupS },
		"sde_per_s":       func(r *repResult) float64 { return float64(r.SDEs) / r.WallS },
		"boundary_ms_p50": func(r *repResult) float64 { return quantile(r.GapsMs, 0.5) },
		"boundary_ms_p90": func(r *repResult) float64 { return quantile(r.GapsMs, 0.9) },
		"cpu_us_per_sde":  func(r *repResult) float64 { return r.CPUS * 1e6 / float64(r.SDEs) },
		"allocs_per_sde":  func(r *repResult) float64 { return float64(r.Mallocs) / float64(r.SDEs) },
		"peak_rss_mb":     func(r *repResult) float64 { return r.PeakRSSMB },
	}
	out := make(map[string]metricValue, len(endToEnd))
	for _, def := range endToEnd {
		values := make([]float64, len(reps))
		for i, r := range reps {
			values[i] = perRep[def.name](r)
		}
		out[def.name] = metricValue{Value: quantile(values, 0.5), Unit: def.unit, Reps: values}
	}
	return out
}

// perLayerMetrics names every per-layer metric: the traced rep's own,
// 0 for the layers off the workload's path, and the two trace metrics
// from the traced rep against the untraced wall.
func perLayerMetrics(untracedWall float64, traced *repResult) map[string]metricValue {
	var attributed float64
	for _, s := range traced.LayerSeconds {
		attributed += s
	}
	traced.Layers["trace.attributed_share"] = attributed / untracedWall
	traced.Layers["trace.overhead_share"] = traced.WallS/untracedWall - 1
	out := make(map[string]metricValue, len(perLayer))
	for _, def := range perLayer {
		out[def.name] = metricValue{Value: traced.Layers[def.name], Unit: def.unit}
	}
	return out
}

// quantile is the p-quantile of values by linear interpolation between
// the order statistics.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (res *workloadResult) print() {
	fmt.Printf("\n%s: %d SDEs, %d/%d boundaries failed", res.Name, res.SDEs, res.Failed, res.Attempted)
	if res.Attempted > 0 {
		fmt.Printf(" (failed_share %.4g)", float64(res.Failed)/float64(res.Attempted))
	}
	fmt.Println()
	if res.EndToEnd != nil {
		fmt.Printf("  end to end, median of %d timed reps (%d boundary samples):\n", res.Reps, res.BoundarySamples)
		for _, def := range endToEnd {
			m := res.EndToEnd[def.name]
			fmt.Printf("    %-38s %14.6g %-6s quartiles [%.6g, %.6g]\n", def.name, m.Value, m.Unit, quantile(m.Reps, 0.25), quantile(m.Reps, 0.75))
		}
	}
	if res.PerLayer != nil {
		fmt.Printf("  per layer, one traced rep (%d spans):\n", len(res.Spans))
		for _, def := range perLayer {
			m := res.PerLayer[def.name]
			fmt.Printf("    %-38s %14.6g %s\n", def.name, m.Value, m.Unit)
		}
		layers := make([]string, 0, len(res.LayerSeconds))
		for layer := range res.LayerSeconds {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		fmt.Printf("  layer time against the untraced run's %.3f s:\n", res.UntracedWall)
		for _, layer := range layers {
			s := res.LayerSeconds[layer]
			fmt.Printf("    %-38s %10.3f s %6.1f %%\n", layer, s, 100*s/res.UntracedWall)
		}
		if share := res.PerLayer["trace.attributed_share"].Value; share < 0.8 {
			fmt.Printf("  WARNING: the layer probes explain only %.0f %% of the run's wall time\n", 100*share)
		}
	}
}

// selfcheck runs the untraced set twice and compares the two medians
// of every end-to-end metric within its bound. A metric whose timed
// reps spread wider than the bound cannot be told apart at that bound:
// it is reported as unresolved, not as equal.
func (b *bench) selfcheck(selected []workload) (agree bool, err error) {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-selfcheck runs from the repository root: %w", err)
	}
	var sets [2][]*workloadResult
	for i := range sets {
		for k := range selected {
			fmt.Fprintf(os.Stderr, "e2ebench: set %d of 2: %s\n", i+1, selected[k].name)
			res, err := b.runWorkload(&selected[k], true, false)
			if err == nil && !res.Correct {
				err = errors.New("outputs are wrong")
			}
			if err != nil {
				return false, fmt.Errorf("%s: %w", selected[k].name, err)
			}
			sets[i] = append(sets[i], res)
		}
	}
	agree = true
	for k := range selected {
		fmt.Printf("\n%s\n", selected[k].name)
		for _, def := range endToEnd {
			bound := bounds[def.name]
			x, y := sets[0][k].EndToEnd[def.name], sets[1][k].EndToEnd[def.name]
			status := "ok"
			switch {
			case math.Abs(y.Value-x.Value) > bound.Bound*x.Value:
				status, agree = "DIFFERS", false
			case spread(x.Reps) > bound.Bound || spread(y.Reps) > bound.Bound:
				status = "unresolved"
			}
			fmt.Printf("  %-18s %-6s first %.6g [%.6g, %.6g]  second %.6g [%.6g, %.6g]  bound %.0f %%  %s\n",
				def.name, def.unit,
				x.Value, quantile(x.Reps, 0.25), quantile(x.Reps, 0.75),
				y.Value, quantile(y.Reps, 0.25), quantile(y.Reps, 0.75),
				100*bound.Bound, status)
		}
	}
	return agree, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	return (quantile(values, 0.75) - quantile(values, 0.25)) / quantile(values, 0.5)
}

// benchmarkMetric is one metric entry of BENCHMARK.json.
type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &benchmarkFile{}
	if err := json.Unmarshal(buf, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func readBounds(path string) (map[string]benchmarkMetric, error) {
	f, err := readBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := make(map[string]benchmarkMetric, len(f.EndToEnd))
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m
	}
	for _, def := range endToEnd {
		if _, ok := bounds[def.name]; !ok {
			return nil, fmt.Errorf("%s has no bound for %s", path, def.name)
		}
	}
	return bounds, nil
}
