package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	insight "github.com/insight-dublin/insight"
)

var update = flag.Bool("update", false, "rewrite testdata/scores.json from this run")

var scoresPath = filepath.Join("testdata", "scores.json")

// higherIsBetter names the quality metrics: a drop in one of them is a
// regression, whatever else changed alongside it.
var higherIsBetter = map[string]bool{
	"precision": true, "prec": true, "recall": true, "F1": true, "accuracy": true,
	"scats F1": true, "scats recall": true,
}

// TestScores runs every table once and holds each scored number to the
// committed testdata/scores.json: the figures regenerate the same
// answers, and the extension tables score the same against the
// generator's ground truth.
func TestScores(t *testing.T) {
	got, err := run(io.Discard, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scoresPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(scoresPath)
	if err != nil {
		t.Fatalf("missing committed scores (run with -update to create): %v", err)
	}
	var want scores
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, msg := range diffScores(want, got) {
		t.Error(msg)
	}
}

// TestPipelineScoresDeterministic runs each table that drives the full
// pipeline twice — Figure 4 and chaos: their scored columns must not
// depend on how the scheduler interleaves the five input streams (the
// recognition times, degraded and mean-lag columns may, and are not
// scored).
func TestPipelineScoresDeterministic(t *testing.T) {
	for _, tb := range []struct {
		name string
		fn   func(*table) error
	}{{"figure4", figure4}, {"chaos", chaos}} {
		var runs [2]scores
		for i := range runs {
			runs[i] = make(scores)
			if err := tb.fn(&table{name: tb.name, out: io.Discard, scores: runs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		for _, msg := range diffScores(runs[0], runs[1]) {
			t.Errorf("second run: %s", msg)
		}
	}
}

// TestFiguresAnswerAsOneEngine is the figure-level twin of the root
// package's TestShardEquivalenceGrid: it runs every table that drives
// the whole system twice, on the figures' tier and on one engine
// (Partitions: 1, the grid's reference), and requires the two to
// answer alike — every scenario's reports equal fingerprint for
// fingerprint (Report.Fingerprint plus the derived-event and period
// counts Figure 4 scores), and every scored value equal. The chaos
// table's delay and stall-recover rows are held by their scores only:
// how many late or backlogged SDEs each boundary admits depends on how
// the scheduler interleaves the sources, so their fingerprints are not
// repeatable from one run to the next on either tier (of 29 reruns
// after a first, on the shard tier and on one engine, delay's differed
// from the first in 29 and 28, stall-recover's in 9 and 22, every other
// row's in none).
func TestFiguresAnswerAsOneEngine(t *testing.T) {
	unrepeatable := map[string]bool{"chaos / delay": true, "chaos / stall-recover": true}
	for _, tb := range []struct {
		name string
		fn   func(*table) error
	}{{"figure4", figure4}, {"veracity", veracity}, {"delay", delay}, {"chaos", chaos}} {
		var runs [2]scores
		var prints [2]map[string][]string
		for i := range runs {
			runs[i], prints[i] = make(scores), make(map[string][]string)
			observe := func(scenario string, reports []*insight.Report) {
				for _, r := range reports {
					prints[i][scenario] = append(prints[i][scenario],
						fmt.Sprintf("%s derived=%d periods=%d", r.Fingerprint(), r.Stats.DerivedEvents, r.Stats.FluentPeriods))
				}
			}
			if err := tb.fn(&table{name: tb.name, out: io.Discard, scores: runs[i], oneEngine: i == 1, observe: observe}); err != nil {
				t.Fatal(err)
			}
		}
		for _, msg := range diffScores(runs[1], runs[0]) {
			t.Errorf("figures' tier against one engine: %s", msg)
		}
		for scenario, want := range prints[1] {
			if unrepeatable[tb.name+" / "+scenario] {
				continue
			}
			got := prints[0][scenario]
			if len(got) != len(want) {
				t.Errorf("%s / %s: %d reports, one engine %d", tb.name, scenario, len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					at := 0
					for at < min(len(got[i]), len(want[i])) && got[i][at] == want[i][at] {
						at++
					}
					from := max(at-60, 0)
					t.Errorf("%s / %s: report %d differs from one engine's at byte %d\n got …%.160s\nwant …%.160s",
						tb.name, scenario, i, at, got[i][from:], want[i][from:])
				}
			}
		}
	}
}

// diffScores lists every "table / row / metric" whose measured value
// differs from the committed one, in a stable order.
func diffScores(want, got scores) []string {
	keys := make([]string, 0, len(want))
	for key := range want {
		keys = append(keys, key)
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		w, inWant := want[key]
		g, inGot := got[key]
		switch {
		case !inGot:
			out = append(out, fmt.Sprintf("%s: committed %s, not measured", key, num(w)))
		case !inWant:
			out = append(out, fmt.Sprintf("%s: measured %s, not committed (run with -update)", key, num(g)))
		case w != g: // both are a printed decimal, parsed the same way
			msg := fmt.Sprintf("%s: %s → %s", key, num(w), num(g))
			if higherIsBetter[key[strings.LastIndex(key, " / ")+3:]] && g < w {
				msg += " — quality regression"
			}
			out = append(out, msg)
		}
	}
	return out
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
