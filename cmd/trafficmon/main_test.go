package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/rtec"
)

// smokeArgs is a short small-city window: four 15-minute boundaries.
// Crowdless, because a round re-asked after a restart draws fresh
// answers from the simulated participants, whose state no checkpoint
// holds; with them the restarted run's reports could differ.
var smokeArgs = []string{"-from", "7h", "-duration", "1h", "-step", "15m", "-wm", "30m",
	"-buses", "24", "-sensors", "24", "-participants", "0", "-json"}

// cancelAfter is a stdout that cancels the run once it has taken k
// JSON report lines (the encoder writes each in one call).
type cancelAfter struct {
	bytes.Buffer
	k      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("{")) {
		if w.k--; w.k == 0 {
			w.cancel()
		}
	}
	return w.Buffer.Write(p)
}

// reports decodes the JSON report lines of a run's output.
func reports(t *testing.T, out string) []*insight.Report {
	t.Helper()
	var reps []*insight.Report
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		rep := &insight.Report{}
		if err := json.Unmarshal([]byte(line), rep); err != nil {
			t.Fatalf("report line %q: %v", line, err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// TestSmoke runs the binary's wiring: a plain run prints one report per
// boundary; a -wal run cancelled after its second report and started
// again on the same directory resumes, and the newest report per query
// time across the two runs equals the plain run's.
func TestSmoke(t *testing.T) {
	var plainOut bytes.Buffer
	if err := run(context.Background(), smokeArgs, &plainOut); err != nil {
		t.Fatal(err)
	}
	plain := reports(t, plainOut.String())
	if len(plain) != 4 {
		t.Fatalf("plain run printed %d reports, want one per boundary (4):\n%s", len(plain), plainOut.String())
	}
	for i, rep := range plain {
		if want := rtec.Time(7*3600 + (i+1)*900); rep.Q != want {
			t.Errorf("report %d at q=%d, want %d", i, int64(rep.Q), int64(want))
		}
	}

	walArgs := append(append([]string(nil), smokeArgs...), "-wal", t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := &cancelAfter{k: 2, cancel: cancel}
	if err := run(ctx, walArgs, first); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled -wal run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(first.String(), "wal: fresh start") {
		t.Errorf("first -wal run printed no fresh-start line:\n%s", first.String())
	}
	var second bytes.Buffer
	if err := run(context.Background(), walArgs, &second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(second.String(), "wal: resumed") {
		t.Errorf("restarted -wal run printed no resumed line:\n%s", second.String())
	}

	newest := make(map[rtec.Time]string)
	for _, rep := range append(reports(t, first.String()), reports(t, second.String())...) {
		newest[rep.Q] = rep.Fingerprint()
	}
	if len(newest) != len(plain) {
		t.Errorf("-wal runs printed %d query times, plain %d", len(newest), len(plain))
	}
	for _, rep := range plain {
		if got, want := newest[rep.Q], rep.Fingerprint(); got != want {
			t.Errorf("q=%d diverged:\n  -wal:  %s\n  plain: %s", int64(rep.Q), got, want)
		}
	}
}
