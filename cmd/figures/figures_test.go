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
	got, err := run(io.Discard)
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

// TestChaosScoresDeterministic runs the chaos table twice: its scored
// columns must not depend on how the scheduler interleaves the five
// input streams (the degraded and mean-lag columns may, and are not
// scored).
func TestChaosScoresDeterministic(t *testing.T) {
	var runs [2]scores
	for i := range runs {
		runs[i] = make(scores)
		if err := chaos(&table{name: "chaos", out: io.Discard, scores: runs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, msg := range diffScores(runs[0], runs[1]) {
		t.Errorf("second run: %s", msg)
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
