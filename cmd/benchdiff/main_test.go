package main

import (
	"strings"
	"testing"
)

const baseRuns = `goos: linux
BenchmarkWorkload/op-2   3   400 ns/op   391.3 Crowd-ns/SDE   4883 CrowdRounds/run
BenchmarkWorkload/op-2   3   410 ns/op   380.0 Crowd-ns/SDE   4883 CrowdRounds/run
BenchmarkWorkload/op-2   3   420 ns/op   401.0 Crowd-ns/SDE   4883 CrowdRounds/run
PASS
`

// TestDiff: runs pair up in order, medians and the base's quartiles are
// printed per cost, a pair is won by the lower value, and a work count
// that differs is printed before the table.
func TestDiff(t *testing.T) {
	base, err := parse(strings.NewReader(baseRuns))
	if err != nil {
		t.Fatal(err)
	}
	if got := base.vals[key{"BenchmarkWorkload/op", "Crowd-ns/SDE"}]; len(got) != 3 || got[2] != 401 {
		t.Fatalf("Crowd-ns/SDE runs %v", got)
	}
	change, err := parse(strings.NewReader(strings.NewReplacer("391.3 ", "93.1 ", "380.0 ", "95.0 ", "420 ns/op", "300 ns/op").Replace(baseRuns)))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	diff(&out, base, change)
	for _, want := range []string{"Crowd-ns/SDE", "391.3", "[      385.6,       396.1]", "95", "-75.7%", "2/3 ", "ns/op", "1/3 "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "differ") {
		t.Errorf("equal work counts reported as differing:\n%s", out.String())
	}

	change.vals[key{"BenchmarkWorkload/op", "CrowdRounds/run"}][1] = 4000
	out.Reset()
	diff(&out, base, change)
	if !strings.HasPrefix(out.String(), "work counts that differ:\n  BenchmarkWorkload/op CrowdRounds/run") {
		t.Errorf("a moved count is not printed first:\n%s", out.String())
	}
}
