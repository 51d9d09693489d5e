package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

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

// dashboardRoutes are the routes trafficmon -http serves, each with
// the content type it answers with.
var dashboardRoutes = map[string]string{
	"/":           "text/html; charset=utf-8",
	"/map.svg":    "image/svg+xml",
	"/api/report": "application/json",
	"/api/flows":  "application/json",
	"/api/trace":  "application/json",
	"/healthz":    "application/json",
}

// routeCheck is a stdout that reads the dashboard's bound address from
// the run's "dashboard on" line and, on the first JSON report line,
// fetches every dashboard route: what each answered, by route.
type routeCheck struct {
	bytes.Buffer
	base string
	got  map[string]string
}

func (w *routeCheck) Write(p []byte) (int, error) {
	if addr, ok := bytes.CutPrefix(p, []byte("dashboard on ")); ok {
		w.base = strings.TrimSuffix(strings.TrimSpace(string(addr)), "/")
	}
	if bytes.HasPrefix(p, []byte("{")) && w.got == nil {
		w.got = make(map[string]string)
		client := &http.Client{Timeout: 10 * time.Second}
		for route := range dashboardRoutes {
			res, err := client.Get(w.base + route)
			if err != nil {
				w.got[route] = err.Error()
				continue
			}
			res.Body.Close()
			w.got[route] = fmt.Sprintf("%d %s", res.StatusCode, res.Header.Get("Content-Type"))
		}
	}
	return w.Buffer.Write(p)
}

// TestSmokeDashboard runs with -http on a free port: the run prints the
// address it bound, and while monitoring every route answers 200 with
// its content type. A busy address is run's error, before monitoring.
func TestSmokeDashboard(t *testing.T) {
	args := append(append([]string(nil), smokeArgs...), "-http", "127.0.0.1:0", "-pace", "0")
	out := &routeCheck{}
	if err := run(context.Background(), args, out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.base, "http://127.0.0.1:") || strings.HasSuffix(out.base, ":0") {
		t.Fatalf("run printed no bound dashboard address:\n%s", out.String())
	}
	if len(reports(t, out.String())) != 4 {
		t.Errorf("-http run printed %d reports, want 4", len(reports(t, out.String())))
	}
	for route, ct := range dashboardRoutes {
		if got, want := out.got[route], "200 "+ct; got != want {
			t.Errorf("GET %s = %q, want %q", route, got, want)
		}
	}

	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	var busyOut bytes.Buffer
	args = append(append([]string(nil), smokeArgs...), "-http", busy.Addr().String())
	if err := run(context.Background(), args, &busyOut); err == nil {
		t.Fatalf("-http on a busy address: run returned no error:\n%s", busyOut.String())
	}
	if reps := reports(t, busyOut.String()); len(reps) != 0 {
		t.Errorf("-http on a busy address printed %d reports before failing", len(reps))
	}
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
