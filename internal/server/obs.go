package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Request observability: every request flows through the middleware in
// ServeHTTP, which assigns (or validates and propagates) an X-Request-Id,
// opens the request's span tree, records the per-endpoint latency
// histogram and status counter, and emits one structured access-log line.
// Requests slower than Config.SlowRequest log at WARN with the full span
// breakdown attached — the "where did this outlier spend its time" answer,
// without asking the client to re-run with debug=trace.

// endpoints the compute histograms are pre-registered for.
var computeEndpoints = []string{"learn", "atpg"}

// endpointOf buckets a request path into a bounded label set — raw paths
// would make series cardinality client-controlled.
func endpointOf(path string) string {
	switch path {
	case "/v1/learn":
		return "learn"
	case "/v1/atpg":
		return "atpg"
	case "/healthz":
		return "healthz"
	case "/v1/stats":
		return "stats"
	case "/metrics":
		return "metrics"
	}
	return "other"
}

// serverMetrics holds the pre-resolved histogram cells; counters with a
// status-code label resolve through the registry per request (get-or-create
// is one mutex acquisition, far off the compute path's critical section).
type serverMetrics struct {
	reg       *obs.Registry
	reqDur    map[string]*obs.Histogram
	queueWait map[string]*obs.Histogram
	slotHold  map[string]*obs.Histogram
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		reqDur:    map[string]*obs.Histogram{},
		queueWait: map[string]*obs.Histogram{},
		slotHold:  map[string]*obs.Histogram{},
	}
	for _, ep := range []string{"learn", "atpg", "healthz", "stats", "metrics", "other"} {
		m.reqDur[ep] = reg.Histogram("seqlearnd_request_duration_seconds",
			"End-to-end request latency (queue wait included).", nil,
			obs.Label{Key: "endpoint", Value: ep})
	}
	for _, ep := range computeEndpoints {
		m.queueWait[ep] = reg.Histogram("seqlearnd_queue_wait_seconds",
			"Time a compute request waited for a pool slot.", nil,
			obs.Label{Key: "endpoint", Value: ep})
		m.slotHold[ep] = reg.Histogram("seqlearnd_slot_hold_seconds",
			"Time a compute request held a pool slot.", nil,
			obs.Label{Key: "endpoint", Value: ep})
	}
	return m
}

// requests resolves the (endpoint, code) response counter.
func (m *serverMetrics) requests(ep string, code int) *obs.Counter {
	return m.reg.Counter("seqlearnd_requests_total",
		"Requests served, by endpoint and status code.",
		obs.Label{Key: "endpoint", Value: ep},
		obs.Label{Key: "code", Value: strconv.Itoa(code)})
}

// statusWriter captures the response status for the counter and the log.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// observe is the middleware body: request-ID handling, trace creation,
// latency/status recording and access logging around the mux dispatch.
func (s *Server) observe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ep := endpointOf(r.URL.Path)

	id := r.Header.Get("X-Request-Id")
	if !obs.ValidRequestID(id) {
		id = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", id)

	tr := obs.NewTrace(id, ep)
	r = r.WithContext(obs.WithTrace(r.Context(), tr))
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}

	s.mux.ServeHTTP(sw, r)

	tr.Root().End()
	elapsed := time.Since(start)
	s.metrics.reqDur[ep].Observe(elapsed.Seconds())
	s.metrics.requests(ep, sw.code).Inc()

	if s.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("request_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", sw.code),
		slog.Float64("duration_ms", ms(elapsed)),
	}
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		attrs = append(attrs, slog.Any("trace", tr.JSON()))
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request", attrs...)
		return
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// Registry exposes the metrics registry so cmd/seqlearnd can serve
// /metrics from the -debug-addr side listener as well.
func (s *Server) Registry() *obs.Registry { return s.reg }
