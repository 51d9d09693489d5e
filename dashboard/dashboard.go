// Package dashboard is the operator-facing output of the system: "an
// important requirement is to have a simple, intuitive interactive map
// to present all traffic information and alerts" (Section 2 of Artikis
// et al., EDBT 2014). It serves, over HTTP:
//
//	/            an auto-refreshing HTML page: the city map with the
//	             latest alerts, crowd resolutions and statistics
//	/map.svg     the live city map — GP flow shading, SCATS sensor
//	             dots, red rings on congested intersections
//	/api/report  the latest operator report as JSON
//	/api/flows   the latest flow estimates as JSON
//	/api/trace   the last traceLen reports' query times and per-stage
//	             cost records (Report.Span) as JSON, oldest first: each
//	             boundary's latency budget stage by stage
//	/healthz     the Streams supervision state as JSON: every process's
//	             health, the retained dead letters and the latest
//	             report's degraded streams and watermark lag; 503 when a
//	             process has failed or a stream is degraded
//
// Every JSON route answers 503 with an {"error": …} body until it has
// something to serve. The server holds only the most recent state and
// the trace ring; feed it from a PipelineOptions.OnReport callback and
// hand it the pipeline's topology with Watch (see cmd/trafficmon -http).
package dashboard

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"sync"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
)

// Server renders the operator dashboard. Create with New, feed with
// Update/UpdateFlows, hand it the topology with Watch, mount with
// Handler.
type Server struct {
	city        *dublin.City   //state:transient render-only config, injected at construction
	interVertex map[string]int //state:derived intersection ID -> street-graph vertex, built in New

	mu     sync.RWMutex
	report *insight.Report
	flows  *insight.FlowEstimate
	top    *streams.Topology
	// trace is a ring of the last traceLen reports' cost records; traced
	// counts every report Update was given, so the oldest entry is at
	// traced % traceLen once the ring is full.
	trace  [traceLen]traceEntry //state:transient a display ring Update refills from the reports
	traced int                  //state:transient the ring's write count, with trace
}

// traceLen is how many reports /api/trace holds: at the paper's 15-min
// step, 16 hours of boundaries.
const traceLen = 64

// traceEntry is one report's entry in /api/trace.
type traceEntry struct {
	Q    insight.Time
	Span insight.Span
}

// New builds a dashboard over the monitored city.
func New(city *dublin.City) (*Server, error) {
	if city == nil {
		return nil, fmt.Errorf("dashboard: city is required")
	}
	s := &Server{
		city:        city,
		interVertex: make(map[string]int),
	}
	for i := range city.Sensors() {
		sensor := &city.Sensors()[i]
		s.interVertex[sensor.Intersection] = sensor.Vertex
	}
	return s, nil
}

// Update publishes the latest operator report and adds its cost record
// to the trace.
func (s *Server) Update(r *insight.Report) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.report = r
	s.trace[s.traced%traceLen] = traceEntry{Q: r.Q, Span: r.Span}
	s.traced++
}

// UpdateFlows publishes the latest traffic-model estimates.
func (s *Server) UpdateFlows(f *insight.FlowEstimate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flows = f
}

// Watch publishes the supervision state of top, the topology of the
// pipeline whose reports feed the server, at /healthz.
func (s *Server) Watch(top *streams.Topology) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.top = top
}

// snapshot returns the current state under the read lock.
func (s *Server) snapshot() (*insight.Report, *insight.FlowEstimate, *streams.Topology) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.report, s.flows, s.top
}

// Handler returns the HTTP handler serving the dashboard.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.serveIndex)
	mux.HandleFunc("GET /map.svg", s.serveMap)
	mux.HandleFunc("GET /api/report", s.serveReport)
	mux.HandleFunc("GET /api/flows", s.serveFlows)
	mux.HandleFunc("GET /api/trace", s.serveTrace)
	mux.HandleFunc("GET /healthz", s.serveHealth)
	return mux
}

var indexTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>INSIGHT Dublin — traffic monitor</title>
<style>
  body { font-family: sans-serif; margin: 1.5em; }
  table { border-collapse: collapse; }
  td, th { border: 1px solid #ccc; padding: 2px 8px; font-size: 13px; text-align: left; }
  .kind { font-weight: bold; }
  img { border: 1px solid #ccc; max-width: 100%; }
</style>
</head>
<body>
<h1>INSIGHT Dublin — traffic monitor</h1>
{{if .Report}}
<p>query time <b>{{.Report.Q}}</b> — {{.Report.FedEvents}} SDEs,
{{len .Report.CongestedIntersections}} congested intersections,
{{len .Report.Disagreements}} source disagreements,
{{len .Report.NoisyBuses}} unreliable buses,
recognition {{.Report.Stats.Elapsed}}</p>
<img src="/map.svg" alt="city map">
<h2>Alerts</h2>
<table>
<tr><th>time</th><th>kind</th><th>key</th><th>detail</th></tr>
{{range .Report.Alerts}}
<tr><td>{{.Time}}</td><td class="kind">{{.Kind}}</td><td>{{.Key}}</td><td>{{.Text}}</td></tr>
{{else}}
<tr><td colspan="4">none</td></tr>
{{end}}
</table>
<h2>Crowd resolutions</h2>
<table>
<tr><th>intersection</th><th>verdict</th><th>confidence</th><th>participants</th></tr>
{{range .Report.CrowdRounds}}
<tr><td>{{.Intersection}}</td><td>{{.Verdict.Best}}</td><td>{{printf "%.2f" .Verdict.Confidence}}</td><td>{{.Queried}}</td></tr>
{{else}}
<tr><td colspan="4">none</td></tr>
{{end}}
</table>
{{else}}
<p>waiting for the first report…</p>
{{end}}
</body>
</html>`))

func (s *Server) serveIndex(w http.ResponseWriter, _ *http.Request) {
	report, _, _ := s.snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTemplate.Execute(w, struct{ Report *insight.Report }{report}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) serveMap(w http.ResponseWriter, _ *http.Request) {
	report, flows, _ := s.snapshot()
	g := s.city.Graph()

	opts := citygraph.RenderOptions{Width: 900}
	if flows != nil && len(flows.Values) == g.NumVertices() {
		opts.Values = flows.Values
		opts.Sensors = flows.ObservedVertices
	}
	if report != nil {
		opts.Title = fmt.Sprintf("query time %d — %d alerts", int64(report.Q), len(report.Alerts))
		seen := make(map[int]bool)
		for _, id := range report.CongestedIntersections {
			if v, ok := s.intersectionVertex(id); ok && !seen[v] {
				seen[v] = true
				opts.Highlights = append(opts.Highlights, v)
			}
		}
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := g.RenderSVG(w, opts); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// intersectionVertex maps an intersection ID to its street-graph
// vertex.
func (s *Server) intersectionVertex(id string) (int, bool) {
	v, ok := s.interVertex[id]
	return v, ok
}

func (s *Server) serveReport(w http.ResponseWriter, _ *http.Request) {
	report, _, _ := s.snapshot()
	if report == nil {
		sendJSON(w, http.StatusServiceUnavailable, []byte(`{"error": "no report yet"}`), nil)
		return
	}
	body, err := json.Marshal(report)
	sendJSON(w, http.StatusOK, body, err)
}

func (s *Server) serveFlows(w http.ResponseWriter, _ *http.Request) {
	_, flows, _ := s.snapshot()
	if flows == nil {
		sendJSON(w, http.StatusServiceUnavailable, []byte(`{"error": "no flow estimates yet"}`), nil)
		return
	}
	body, err := json.Marshal(flows)
	sendJSON(w, http.StatusOK, body, err)
}

func (s *Server) serveTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := min(s.traced, traceLen)
	entries := make([]traceEntry, n)
	for i := range entries {
		entries[i] = s.trace[(s.traced-n+i)%traceLen]
	}
	s.mu.RUnlock()
	if n == 0 {
		sendJSON(w, http.StatusServiceUnavailable, []byte(`{"error": "no report yet"}`), nil)
		return
	}
	body, err := json.Marshal(entries)
	sendJSON(w, http.StatusOK, body, err)
}

// health is the /healthz document.
type health struct {
	// Healthy is false when a process has failed or the latest report
	// lists a degraded stream.
	Healthy bool
	// Processes is Topology.Health by process name, each state by name;
	// empty until Watch.
	Processes   map[string]processHealth
	DeadLetters []deadLetter
	// Report is the latest report's stream state, nil before the first.
	Report *streamHealth
}

// processHealth is a process's supervision state with the state by
// name (the outer State shadows the embedded number in the JSON).
type processHealth struct {
	streams.ProcessHealth
	State string
}

// deadLetter is one retained dead letter: the process that skipped the
// item and the error that condemned it. The item itself is not kept.
type deadLetter struct {
	Process string
	Err     string
}

type streamHealth struct {
	Q               insight.Time
	DegradedStreams []string
	WatermarkLag    insight.Time
}

func (s *Server) serveHealth(w http.ResponseWriter, _ *http.Request) {
	report, _, top := s.snapshot()
	doc := health{Healthy: true, Processes: make(map[string]processHealth), DeadLetters: []deadLetter{}}
	if top != nil {
		for name, h := range top.Health() {
			doc.Processes[name] = processHealth{h, h.State.String()}
			doc.Healthy = doc.Healthy && h.State != streams.HealthFailed
		}
		for _, dl := range top.DeadLetters() {
			doc.DeadLetters = append(doc.DeadLetters, deadLetter{Process: dl.Process, Err: dl.Err.Error()})
		}
	}
	if report != nil {
		doc.Report = &streamHealth{Q: report.Q, DegradedStreams: report.DegradedStreams, WatermarkLag: report.WatermarkLag}
		doc.Healthy = doc.Healthy && len(report.DegradedStreams) == 0
	}
	status := http.StatusOK
	if !doc.Healthy {
		status = http.StatusServiceUnavailable
	}
	body, err := json.Marshal(doc)
	sendJSON(w, status, body, err)
}

// sendJSON writes body, a route's JSON document, with status; err, the
// error encoding the document returned, turns the response into a 500.
// Error bodies go through here rather than http.Error, which would
// reset the Content-Type to text/plain.
func sendJSON(w http.ResponseWriter, status int, body []byte, err error) {
	if err != nil {
		msg, _ := json.Marshal(err.Error())
		status, body = http.StatusInternalServerError, append(append([]byte(`{"error": `), msg...), '}')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
