package dashboard

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

func testServer(t *testing.T) (*Server, *insight.System, *dublin.City) {
	t.Helper()
	city, err := dublin.NewCity(dublin.Config{
		Seed: 42, NumBuses: 40, NumSensors: 40, NoisyBusFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := insight.New(insight.Config{
		City:          city,
		WorkingMemory: 1800,
		Step:          900,
		Traffic:       traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(city)
	if err != nil {
		t.Fatal(err)
	}
	return srv, sys, city
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("a nil city must error")
	}
}

// getJSON fetches path and fails unless it answers want with a JSON
// body labelled application/json.
func getJSON(t *testing.T, h http.Handler, path string, want int) string {
	t.Helper()
	res, body := get(t, h, path)
	if res.StatusCode != want {
		t.Errorf("%s status = %d, want %d: %s", path, res.StatusCode, want, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s Content-Type = %q, want application/json", path, ct)
	}
	if !json.Valid([]byte(body)) {
		t.Errorf("%s body is not JSON: %q", path, body)
	}
	return body
}

// healthDoc decodes a /healthz body.
func healthDoc(t *testing.T, body string) health {
	t.Helper()
	var doc health
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/healthz is not a health document: %v", err)
	}
	return doc
}

func TestDashboardBeforeFirstReport(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()

	res, body := get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Errorf("index status = %d", res.StatusCode)
	}
	if !strings.Contains(body, "waiting for the first report") {
		t.Error("index should state that no report exists yet")
	}
	getJSON(t, h, "/api/report", http.StatusServiceUnavailable)
	getJSON(t, h, "/api/flows", http.StatusServiceUnavailable)
	getJSON(t, h, "/api/trace", http.StatusServiceUnavailable)
	// Nothing has failed before a topology or a report exists.
	if doc := healthDoc(t, getJSON(t, h, "/healthz", http.StatusOK)); !doc.Healthy || len(doc.Processes) != 0 || doc.Report != nil {
		t.Errorf("/healthz before the first report = %+v", doc)
	}
	// The map renders even without data.
	res, body = get(t, h, "/map.svg")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "<svg") {
		t.Errorf("map status = %d", res.StatusCode)
	}
}

func TestDashboardWithLiveData(t *testing.T) {
	srv, sys, _ := testServer(t)
	h := srv.Handler()

	// Drive a morning-rush step through the system.
	pipe, _, err := sys.Pipeline(7*3600, 8*3600, insight.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports produced")
	}
	last := reports[len(reports)-1]
	for _, r := range reports {
		srv.Update(r)
	}
	srv.Watch(pipe.Topology)
	flows, err := sys.FlowMap(insight.MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500})
	if err != nil {
		t.Fatal(err)
	}
	srv.UpdateFlows(flows)

	res, body := get(t, h, "/")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("index status = %d", res.StatusCode)
	}
	if !strings.Contains(body, "query time") || !strings.Contains(body, "map.svg") {
		t.Error("index missing live content")
	}

	res, body = get(t, h, "/map.svg")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("map status = %d", res.StatusCode)
	}
	if !strings.Contains(body, "<line") {
		t.Error("map missing street segments")
	}
	if len(last.CongestedIntersections) > 0 && !strings.Contains(body, `stroke="#d00"`) {
		t.Error("congested intersections should be highlighted")
	}
	if !strings.Contains(body, `fill="black"`) {
		t.Error("sensor dots missing from flow-shaded map")
	}

	body = getJSON(t, h, "/api/report", http.StatusOK)
	var decoded struct {
		Q         int64
		FedEvents int
	}
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if decoded.Q != int64(last.Q) || decoded.FedEvents == 0 {
		t.Errorf("report JSON = %+v", decoded)
	}

	body = getJSON(t, h, "/api/flows", http.StatusOK)
	var flowsOut struct{ Values []float64 }
	if err := json.Unmarshal([]byte(body), &flowsOut); err != nil {
		t.Fatalf("flows not JSON: %v", err)
	}
	if len(flowsOut.Values) == 0 {
		t.Error("flow JSON empty")
	}
}

// TestDashboardTrace: /api/trace holds the last traceLen reports' query
// times and cost records, oldest first, the ring wrapping past its
// length.
func TestDashboardTrace(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()
	const fed = traceLen + 5
	for i := 0; i < fed; i++ {
		var span insight.Span
		span.Query.Wall = time.Duration(i) * time.Millisecond
		span.CrowdRounds = i
		srv.Update(&insight.Report{Q: insight.Time(900 * i), Span: span})
		if i == 0 {
			var one []traceEntry
			if err := json.Unmarshal([]byte(getJSON(t, h, "/api/trace", http.StatusOK)), &one); err != nil || len(one) != 1 || one[0].Q != 0 {
				t.Fatalf("trace after one report = %+v (err %v)", one, err)
			}
		}
	}
	var got []traceEntry
	if err := json.Unmarshal([]byte(getJSON(t, h, "/api/trace", http.StatusOK)), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != traceLen {
		t.Fatalf("trace holds %d entries, want %d", len(got), traceLen)
	}
	for j, e := range got {
		i := fed - traceLen + j
		if e.Q != insight.Time(900*i) || e.Span.Query.Wall != time.Duration(i)*time.Millisecond || e.Span.CrowdRounds != i {
			t.Errorf("entry %d = q %d, Query %v, %d rounds; want report %d's", j, int64(e.Q), e.Span.Query.Wall, e.Span.CrowdRounds, i)
		}
	}
}

func TestDashboardMethodRouting(t *testing.T) {
	srv, _, _ := testServer(t)
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/api/report", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Result().StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", rec.Result().StatusCode)
	}
	// Unknown path.
	res, _ := get(t, h, "/nope")
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", res.StatusCode)
	}
}

// A fault-free pipeline's topology is healthy at /healthz, which names
// every process of the pipeline and the latest report's query time.
func TestHealthzFaultFree(t *testing.T) {
	srv, sys, _ := testServer(t)
	pipe, _, err := sys.Pipeline(7*3600, 7*3600+1800, insight.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	srv.Update(reports[len(reports)-1])
	srv.Watch(pipe.Topology)

	doc := healthDoc(t, getJSON(t, srv.Handler(), "/healthz", http.StatusOK))
	if !doc.Healthy || len(doc.DeadLetters) != 0 {
		t.Errorf("fault-free run: healthy = %v, dead letters %v", doc.Healthy, doc.DeadLetters)
	}
	want := pipe.Topology.Health()
	if len(doc.Processes) != len(want) || len(want) == 0 {
		t.Errorf("/healthz names %d processes, the pipeline has %d", len(doc.Processes), len(want))
	}
	for name, h := range want {
		if got, ok := doc.Processes[name]; !ok || got.State != h.State.String() {
			t.Errorf("process %q: /healthz %+v, topology %+v", name, got, h)
		}
	}
	if doc.Report == nil || doc.Report.Q != reports[len(reports)-1].Q {
		t.Errorf("/healthz report = %+v, want q=%d", doc.Report, reports[len(reports)-1].Q)
	}
}

// A failed process turns /healthz to 503 and shows its last error; a
// skipped item is a dead letter, not a failure.
func TestHealthzFailedProcess(t *testing.T) {
	items := []streams.Item{{"n": 0}, {"n": 1}}
	line := func(name string, p streams.Processor) *streams.Topology {
		top := streams.NewTopology()
		if err := top.AddStream("in", streams.NewSliceSource(items...)); err != nil {
			t.Fatal(err)
		}
		if err := top.AddSink("out", streams.NewCollectorSink()); err != nil {
			t.Fatal(err)
		}
		if err := top.AddProcess(name, "in", "out", p); err != nil {
			t.Fatal(err)
		}
		return top
	}
	boom := streams.ProcessorFunc(func(streams.Item) (streams.Item, error) {
		return nil, errors.New("sensor feed broken")
	})

	failed := line("validate", boom)
	if err := failed.Run(context.Background()); err == nil {
		t.Fatal("a fail-fast process error must end Run")
	}
	srv, _, _ := testServer(t)
	srv.Watch(failed)
	doc := healthDoc(t, getJSON(t, srv.Handler(), "/healthz", http.StatusServiceUnavailable))
	got := doc.Processes["validate"]
	if doc.Healthy || got.State != "failed" || !strings.Contains(got.LastError, "sensor feed broken") {
		t.Errorf("failed process: healthy = %v, %+v", doc.Healthy, got)
	}

	skipping := line("validate", boom)
	if err := skipping.Supervise("validate", streams.SkipItem); err != nil {
		t.Fatal(err)
	}
	if err := skipping.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Watch(skipping)
	doc = healthDoc(t, getJSON(t, srv.Handler(), "/healthz", http.StatusOK))
	if len(doc.DeadLetters) != len(items) || doc.Processes["validate"].Skipped != len(items) {
		t.Fatalf("skip-item process: %+v", doc)
	}
	for _, dl := range doc.DeadLetters {
		if dl.Process != "validate" || dl.Err != "sensor feed broken" {
			t.Errorf("dead letter %+v", dl)
		}
	}
}

// A report that lists a degraded stream turns /healthz to 503.
func TestHealthzDegradedStream(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.Update(&insight.Report{Q: 7*3600 + 900, DegradedStreams: []string{"scats-north"}, WatermarkLag: 1200})
	doc := healthDoc(t, getJSON(t, srv.Handler(), "/healthz", http.StatusServiceUnavailable))
	if doc.Healthy || doc.Report == nil || len(doc.Report.DegradedStreams) != 1 || doc.Report.WatermarkLag != 1200 {
		t.Errorf("degraded stream: %+v", doc)
	}
}
