package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: with
// E2EBENCH_MAIN set it runs main, so the smoke test drives the real
// flag parsing, the child processes and the output, not a copy.
func TestMain(m *testing.M) {
	if os.Getenv("E2EBENCH_MAIN") != "" {
		main() // exits itself on failure
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// e2ebench runs the command at miniature scale and returns its
// standard output.
func e2ebench(t *testing.T, args ...string) []byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-mini", "-reps", "1", "-tmp", t.TempDir()}, args...)...)
	cmd.Env = append(os.Environ(), "E2EBENCH_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("e2ebench %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts got holds exactly the metrics want names, each
// with its unit.
func checkMetrics(t *testing.T, where string, got map[string]metricValue, want []benchmarkMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", where, len(got), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q is malformed", where, m.Name)
		}
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s is not emitted", where, m.Name)
			continue
		}
		if v.Unit == "" || v.Unit != m.Unit {
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", where, m.Name, v.Unit, m.Unit)
		}
	}
}

// TestSmoke runs all four workloads at miniature scale through the one
// command and holds its output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "cmd/e2ebench" {
		t.Errorf("BENCHMARK.json paths = %v, want [cmd/e2ebench]", spec.Paths)
	}
	if _, err := readBounds(filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Error(err)
	}

	out := filepath.Join(t.TempDir(), "metrics.json")
	e2ebench(t, "-seconds", "0", "-out", out)
	written, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(written, &doc); err != nil {
		t.Fatal(err)
	}
	again, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), written) {
		t.Error("the -out document does not survive a decode/encode round trip")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads ran, want %d", len(doc.Workloads), len(workloads))
	}
	for i, res := range doc.Workloads {
		if res.Name != spec.Workloads[i].Name || !nameRE.MatchString(res.Name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, res.Name, spec.Workloads[i].Name)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v, %d of %d boundaries failed", res.Name, res.Correct, res.Failed, res.Attempted)
		}
		checkMetrics(t, res.Name+" end_to_end", res.EndToEnd, spec.EndToEnd)
		checkMetrics(t, res.Name+" per_layer", res.PerLayer, spec.PerLayer)
		mini := workloads[i].miniature()
		if err := checkSpans(res.Spans, mini.boundaries()); err != nil {
			t.Errorf("%s: span tree: %v", res.Name, err)
		}
		// Only the operator workload reaches crowd and gp; only the
		// durable one reaches the log and the checkpoints.
		for name, m := range res.PerLayer {
			offPath := (strings.HasPrefix(name, "crowd.") || strings.HasPrefix(name, "gp.")) && !workloads[i].operator ||
				(strings.HasPrefix(name, "wal.") || name == "insight.checkpoint_ms_per_boundary") && !workloads[i].durable
			if offPath && m.Value != 0 {
				t.Errorf("%s: %s = %g on a workload that does not reach that layer", res.Name, name, m.Value)
			}
		}
	}
}

// TestResultLine checks the line the benchmark driver reads: the last
// line of standard output, with exactly the contract's keys.
func TestResultLine(t *testing.T) {
	spec, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]benchmarkMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
		out := e2ebench(t, "--workload", "dublin1x-late", "--seed", "7", "--seconds", "0", "--trace", trace)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not a JSON object: %v", trace, err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: result line has %d keys, want correct, attempted, failed and metrics", trace, len(line))
		}
		var res struct {
			Correct   *bool                  `json:"correct"`
			Attempted *int                   `json:"attempted"`
			Failed    *int                   `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil || *res.Failed != 0 {
			t.Errorf("trace %s: result line %s", trace, lines[len(lines)-1])
		}
		checkMetrics(t, "trace "+trace, res.Metrics, want)
	}
}

func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	root := span{ID: 0, Parent: -1, Name: spanBoundary, Boundary: 1, StartNs: 0, EndNs: 10}
	if err := checkSpans([]span{root, {ID: 1, Parent: 0, Name: "child", Boundary: 1, StartNs: 2, EndNs: 8}}, 1); err != nil {
		t.Errorf("well-formed tree rejected: %v", err)
	}
	for name, spans := range map[string][]span{
		"child outlives parent": {root, {ID: 1, Parent: 0, Name: "child", StartNs: 2, EndNs: 12}},
		"parent after child":    {{ID: 0, Parent: 1, Name: "child", StartNs: 2, EndNs: 8}, root},
		"two roots":             {root, {ID: 1, Parent: -1, Name: spanBoundary, Boundary: 1, StartNs: 10, EndNs: 20}},
		"no root":               {},
	} {
		if err := checkSpans(spans, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
