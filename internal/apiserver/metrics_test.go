package apiserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// metricsServer builds a handler over a small simulated topology with
// a fresh, injected registry so counter assertions are exact.
func metricsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	p := topology.DefaultParams(7)
	p.ASes = 150
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(7)
	opts.NumVPs = 8
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServerWithStore(Build(res), nil, Config{Registry: reg, Shed: DefaultShedPolicy()}))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func counterValue(reg *obs.Registry, route, class string) uint64 {
	return reg.CounterVec("asrank_http_requests_total",
		"HTTP requests served, by route pattern and status class.", "route", "class").
		With(route, class).Value()
}

func TestErrorPathsRecordStatusClasses(t *testing.T) {
	srv, reg := metricsServer(t)

	// Bad ASN → 400 on the {asn} route.
	if code := get(t, srv.URL+"/api/v1/asns/notanumber"); code != 400 {
		t.Fatalf("bad ASN status = %d", code)
	}
	// Unknown ASN → 404 on the {asn} route.
	if code := get(t, srv.URL+"/api/v1/asns/4294967294"); code != 404 {
		t.Fatalf("unknown ASN status = %d", code)
	}
	// Bad limit and offset → 400 on the list route.
	for _, q := range []string{"?limit=0", "?limit=notanumber", "?limit=5000", "?offset=-1", "?offset=x"} {
		if code := get(t, srv.URL+"/api/v1/asns"+q); code != 400 {
			t.Fatalf("%s status = %d, want 400", q, code)
		}
	}
	// And two successes for contrast.
	if code := get(t, srv.URL+"/api/v1/asns?limit=3"); code != 200 {
		t.Fatalf("list status = %d", code)
	}
	if code := get(t, srv.URL+"/api/v1/health"); code != 200 {
		t.Fatalf("health status = %d", code)
	}

	if got := counterValue(reg, "/api/v1/asns/{asn}", "4xx"); got != 2 {
		t.Errorf("asns/{asn} 4xx = %d, want 2", got)
	}
	if got := counterValue(reg, "/api/v1/asns", "4xx"); got != 5 {
		t.Errorf("asns 4xx = %d, want 5", got)
	}
	if got := counterValue(reg, "/api/v1/asns", "2xx"); got != 1 {
		t.Errorf("asns 2xx = %d, want 1", got)
	}
	if got := counterValue(reg, "/api/v1/health", "2xx"); got != 1 {
		t.Errorf("health 2xx = %d, want 1", got)
	}

	// The latency histogram saw the same route/class pairs.
	lat := reg.HistogramVec("asrank_http_request_duration_seconds",
		"HTTP request latency, by route pattern and status class.",
		obs.DurationBuckets, "route", "class")
	if got := lat.With("/api/v1/asns/{asn}", "4xx").Count(); got != 2 {
		t.Errorf("latency asns/{asn} 4xx count = %d, want 2", got)
	}
	if got := lat.With("/api/v1/health", "2xx").Count(); got != 1 {
		t.Errorf("latency health 2xx count = %d, want 1", got)
	}

	if errs := obs.Lint(reg.Expose()); len(errs) != 0 {
		t.Fatalf("HTTP metrics exposition invalid: %v", errs)
	}
}

func TestWriteJSONEncodeFailureSendsCleanError(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, false, map[string]any{"bad": make(chan int)}) // unencodable
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	body := rr.Body.String()
	if strings.Contains(body, "{") {
		t.Errorf("client saw partial JSON before the error: %q", body)
	}
	if ct := rr.Header().Get("Content-Type"); strings.Contains(ct, "application/json") {
		t.Errorf("error response mislabeled as JSON (%q)", ct)
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	rr := httptest.NewRecorder()
	sw := &statusWriter{ResponseWriter: rr}
	sw.Write([]byte("hello"))
	if sw.Status() != 200 || sw.bytes != 5 {
		t.Fatalf("status=%d bytes=%d", sw.Status(), sw.bytes)
	}
	rr = httptest.NewRecorder()
	sw = &statusWriter{ResponseWriter: rr}
	sw.WriteHeader(404)
	sw.WriteHeader(500) // second call must not overwrite
	if sw.Status() != 404 {
		t.Fatalf("status=%d, want 404", sw.Status())
	}
}

// TestFlushThroughMiddlewareStack is the regression test for the
// statusWriter hiding http.Flusher: a streaming handler must be able
// to flush through the full production stack (access log → trace →
// metrics → shed), which requires Unwrap on every wrapping writer so
// http.ResponseController can reach the real connection.
func TestFlushThroughMiddlewareStack(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	tr := trace.New(trace.Options{})
	var flushErr error
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := w.Write([]byte("chunk")); err != nil {
			t.Errorf("write: %v", err)
		}
		flushErr = http.NewResponseController(w).Flush()
	})
	stack := LogRequests(TraceRequests(tr, "/stream", m.Wrap("/stream",
		Shed("/stream", DefaultShedPolicy(), m, inner))))

	rr := httptest.NewRecorder()
	stack.ServeHTTP(rr, httptest.NewRequest("GET", "/stream", nil))
	if flushErr != nil {
		t.Fatalf("flush through middleware stack: %v", flushErr)
	}
	if !rr.Flushed {
		t.Fatal("flush never reached the underlying writer")
	}
	if rr.Body.String() != "chunk" {
		t.Fatalf("body = %q", rr.Body.String())
	}
}

func TestStatusClass(t *testing.T) {
	for code, want := range map[int]string{
		200: "2xx", 204: "2xx", 301: "3xx", 404: "4xx", 500: "5xx", 99: "other", 600: "other",
	} {
		if got := statusClass(code); got != want {
			t.Errorf("statusClass(%d) = %q, want %q", code, got, want)
		}
	}
}

// TestMetricsEndToEnd runs the real pipeline against the default
// registry and asserts the full /metrics surface the daemon serves:
// sanitize drop counters, per-inference-step durations, pool task and
// steal counters, and per-route HTTP latency histograms with status
// classes — all in lint-clean Prometheus text format.
func TestMetricsEndToEnd(t *testing.T) {
	p := topology.DefaultParams(19)
	p.ASes = 200
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(19)
	opts.NumVPs = 8
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Sanitize + infer inside Infer (records sanitize and step metrics),
	// Build (cone + pool metrics), then serve requests through the
	// default-registry handler exactly as asrankd wires it.
	res := core.Infer(sim.Dataset, core.Options{Sanitize: true, Workers: 4})
	data := Build(res)
	srv := httptest.NewServer(LogRequests(NewServerWithStore(data, nil, Config{Shed: DefaultShedPolicy()})))
	defer srv.Close()
	for _, path := range []string{"/api/v1/health", "/api/v1/asns?limit=5", "/api/v1/asns/0"} {
		get(t, srv.URL+path)
	}

	// Serve /metrics the way the daemon's debug listener does.
	msrv := httptest.NewServer(obs.Default().Handler())
	defer msrv.Close()
	resp, err := http.Get(msrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("content type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	for _, want := range []string{
		`asrank_sanitize_paths_dropped_total{reason="loop"}`,
		`asrank_sanitize_paths_dropped_total{reason="duplicate"}`,
		"asrank_sanitize_duration_seconds_count",
		`asrank_infer_step_duration_seconds_count{step="sanitize"}`,
		`asrank_infer_step_duration_seconds_count{step="top-down"}`,
		`asrank_infer_step_duration_seconds_count{step="peer-default"}`,
		`asrank_infer_links_labeled_total{step="peer-default"}`,
		"asrank_infer_clique_size",
		`asrank_pool_tasks_total{mode="range"}`,
		"asrank_pool_steals_total",
		"asrank_pool_task_duration_seconds_count",
		`asrank_cone_build_duration_seconds_count{engine="pp"}`,
		`asrank_http_requests_total{route="/api/v1/health",class="2xx"}`,
		`asrank_http_request_duration_seconds_bucket{route="/api/v1/health",class="2xx",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if errs := obs.Lint(out); len(errs) != 0 {
		t.Fatalf("/metrics exposition invalid: %v", errs)
	}
}
