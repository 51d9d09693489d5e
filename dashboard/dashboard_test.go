package dashboard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
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
	srv, err := New(city, sys.Registry())
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
	if _, err := New(nil, nil); err == nil {
		t.Error("nil inputs must error")
	}
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
	res, _ = get(t, h, "/api/report")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("report status = %d, want 503", res.StatusCode)
	}
	res, _ = get(t, h, "/api/flows")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("flows status = %d, want 503", res.StatusCode)
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

	res, body = get(t, h, "/api/report")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("report status = %d", res.StatusCode)
	}
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

	res, body = get(t, h, "/api/flows")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("flows status = %d", res.StatusCode)
	}
	var flowsOut struct{ Values []float64 }
	if err := json.Unmarshal([]byte(body), &flowsOut); err != nil {
		t.Fatalf("flows not JSON: %v", err)
	}
	if len(flowsOut.Values) == 0 {
		t.Error("flow JSON empty")
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
