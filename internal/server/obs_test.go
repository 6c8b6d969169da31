package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"net/http/httptest"

	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/obs"
)

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestMetricsEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))
	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))

	payload := scrape(t, ts)
	if err := obs.LintExposition([]byte(payload)); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	for _, want := range []string{
		"# TYPE seqlearnd_request_duration_seconds histogram",
		`seqlearnd_request_duration_seconds_bucket{endpoint="learn",le="+Inf"} 2`,
		"# TYPE seqlearnd_queue_wait_seconds histogram",
		"# TYPE seqlearnd_slot_hold_seconds histogram",
		"seqlearnd_learn_runs_total 1",
		`seqlearnd_cache_hits_total{cache="learn"} 1`,
		`seqlearnd_cache_misses_total{cache="learn"} 1`,
		`seqlearnd_served_total{endpoint="learn"} 2`,
		`seqlearnd_requests_total{code="200",endpoint="learn"} 2`,
		"seqlearnd_in_flight 0",
		"seqlearnd_queue_depth 0",
		"seqlearnd_store_degraded 0",
		"seqlearnd_build_info{",
	} {
		if !strings.Contains(payload, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// spanNames flattens a span tree into a set of names.
func spanNames(tree *obs.SpanTree, into map[string]bool) {
	if tree == nil {
		return
	}
	into[tree.Name] = true
	for _, c := range tree.Children {
		spanNames(c, into)
	}
}

func TestDebugTraceSpanCoverage(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	q := url.Values{"debug": {"trace"}, "max_faults": {"40"}}
	resp := post[ATPGResponse](t, ts, "/v1/atpg", q, benchText(t, gen.MustBuild("s953")))
	if resp.Trace == nil {
		t.Fatal("debug=trace returned no trace")
	}
	if resp.Trace.ID == "" {
		t.Fatal("trace has no request ID")
	}
	names := map[string]bool{}
	spanNames(resp.Trace.Root, names)
	// A cold ATPG request must cover parse, the learning phases, fault
	// simulation and PODEM.
	for _, want := range []string{
		"atpg", "parse", "learn",
		"single_node", "equiv", "multi_node", "comb_learn",
		"fault_sim", "podem",
	} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	// The same request without debug=trace omits the tree.
	q2 := url.Values{"max_faults": {"40"}}
	resp2 := post[ATPGResponse](t, ts, "/v1/atpg", q2, benchText(t, gen.MustBuild("s953")))
	if resp2.Trace != nil {
		t.Fatal("trace present without debug=trace")
	}
}

func TestBadDebugParam(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/learn?debug=bogus", "text/plain",
		strings.NewReader(benchText(t, circuits.Figure2())))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("debug=bogus: status %d, want 400", resp.StatusCode)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-42" {
		t.Fatalf("valid request ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "bad id with spaces")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-Id")
	if got == "bad id with spaces" || !obs.ValidRequestID(got) {
		t.Fatalf("invalid request ID not replaced: got %q", got)
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := httptest.NewServer(New(Config{Logger: logger, SlowRequest: time.Nanosecond}))
	defer ts.Close()

	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))

	var entry map[string]any
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e map[string]any
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("non-JSON log line: %s", line)
		}
		if e["msg"] == "slow request" {
			entry, found = e, true
			break
		}
	}
	if !found {
		t.Fatalf("no slow-request line in log:\n%s", buf.String())
	}
	if entry["level"] != "WARN" {
		t.Errorf("slow request level = %v, want WARN", entry["level"])
	}
	if entry["request_id"] == "" || entry["request_id"] == nil {
		t.Error("slow request line has no request_id")
	}
	tr, ok := entry["trace"].(map[string]any)
	if !ok {
		t.Fatalf("slow request line has no trace object: %v", entry)
	}
	root, ok := tr["root"].(map[string]any)
	if !ok || root["name"] != "learn" {
		t.Fatalf("trace root wrong: %v", tr)
	}
}

func TestAccessLogNormalRequest(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// Generous threshold: the request logs at INFO without a trace dump.
	ts := httptest.NewServer(New(Config{Logger: logger, SlowRequest: time.Hour}))
	defer ts.Close()

	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))

	line := strings.TrimSpace(buf.String())
	var e map[string]any
	if err := json.Unmarshal([]byte(strings.Split(line, "\n")[0]), &e); err != nil {
		t.Fatalf("bad log line: %v\n%s", err, line)
	}
	if e["msg"] != "request" || e["level"] != "INFO" {
		t.Fatalf("access log = %v", e)
	}
	if e["path"] != "/v1/learn" || e["status"] != float64(200) {
		t.Fatalf("access log fields wrong: %v", e)
	}
	if _, hasTrace := e["trace"]; hasTrace {
		t.Fatal("fast request logged a trace dump")
	}
}

func TestStatsAndMetricsAgree(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()

	body := benchText(t, circuits.Figure2())
	post[LearnResponse](t, ts, "/v1/learn", nil, body)
	post[LearnResponse](t, ts, "/v1/learn", nil, body)

	stats := get[StatsResponse](t, ts, "/v1/stats")
	payload := scrape(t, ts)

	// The JSON view and the exposition read the same registry cells.
	if stats.Cache.Learns != 1 || stats.Cache.Hits != 1 {
		t.Fatalf("stats: learns=%d hits=%d", stats.Cache.Learns, stats.Cache.Hits)
	}
	if !strings.Contains(payload, "seqlearnd_learn_runs_total 1") {
		t.Error("metrics learn_runs != stats learns")
	}
	if !strings.Contains(payload, `seqlearnd_cache_hits_total{cache="learn"} 1`) {
		t.Error("metrics cache hits != stats hits")
	}
}

func TestHealthzRevision(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	h := get[HealthResponse](t, ts, "/healthz")
	if h.Revision == "" {
		t.Fatal("healthz has no revision field")
	}
}

func TestNoInstrumentationBypass(t *testing.T) {
	ts := httptest.NewServer(New(Config{noInstrumentation: true}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Fatalf("uninstrumented server set X-Request-Id %q", got)
	}
}
