// Package server exposes the learn/ATPG stack as an HTTP/JSON
// service backed by the content-addressed snapshot store: the paper's
// "learn once, amortize across every query" economics, extended across
// processes. Circuits arrive as extended .bench netlists in the request
// body; learned implication snapshots are resolved through store.Store
// (LRU + singleflight + optional disk), so repeated and concurrent
// requests for the same netlist pay for one learning run; compute requests
// run on a bounded worker pool wired to the engines' existing parallelism
// knobs.
//
// Endpoints:
//
//	POST /v1/learn  learn (or fetch cached) implications for a netlist
//	POST /v1/atpg   generate tests, resolving the snapshot via the cache
//	GET  /healthz   liveness
//	GET  /v1/stats  cache and pool counters
//
// cmd/seqlearnd hosts the server; seqlearn.Client is the in-repo consumer.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config configures a Server. The zero value serves with a
// two-request compute pool and a memory-only cache.
type Config struct {
	// Store configures the snapshot cache.
	Store store.Options

	// MaxConcurrent bounds how many compute requests (learn/atpg)
	// execute at once (default 2); excess requests wait in the admission
	// queue. Each request may itself shard over many cores via its
	// workers parameter.
	MaxConcurrent int

	// MaxQueue bounds how many compute requests may wait for a pool slot
	// (default 16). When the queue is full further requests are shed with
	// 429 Too Many Requests and a Retry-After header derived from the
	// observed service time, so overload produces fast, honest rejections
	// instead of an unbounded pile of blocked handlers. Negative disables
	// waiting entirely (every request beyond the pool sheds).
	MaxQueue int

	// RequestTimeout caps how long any compute request may spend queued
	// plus running (0 = unbounded). Per-request timeout= parameters are
	// capped by it. An expired request returns 504 Gateway Timeout, frees
	// its pool slot at the next cooperative checkpoint, and its partial
	// run is never cached.
	RequestTimeout time.Duration

	// MaxBodyBytes caps the accepted netlist size (default 64 MiB — the
	// largest suite stand-in serializes well under that).
	MaxBodyBytes int64

	// Logger, when non-nil, receives one structured access-log line per
	// request (cmd/seqlearnd wires a JSON handler on stderr). Nil disables
	// access logging; metrics and tracing still run.
	Logger *slog.Logger

	// SlowRequest is the latency threshold above which a request's access
	// log line upgrades to WARN and carries the full span breakdown (0
	// disables the upgrade). Requires Logger.
	SlowRequest time.Duration

	// noInstrumentation bypasses the observability middleware entirely —
	// no request IDs, traces, histograms or access logs. Only package
	// tests set it, to measure the instrumentation overhead against a bare
	// server in the same process (TestInstrumentationOverheadSmoke).
	noInstrumentation bool
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
}

// Server is the HTTP handler. Create one with New; it is safe for
// concurrent use by the net/http machinery.
type Server struct {
	cfg     Config
	store   *store.Store
	pool    *fairQueue // slot pool + bounded FIFO admission queue
	mux     *http.ServeMux
	start   time.Time
	reg     *obs.Registry
	metrics *serverMetrics
	logger  *slog.Logger

	inFlight atomic.Int64
	draining atomic.Bool

	// Pool-outcome counters live in the obs registry; /v1/stats reads the
	// same cells /metrics exports.
	abandoned *obs.Counter
	shed      *obs.Counter
	timedOut  *obs.Counter
	fastPath  *obs.Counter // header-only requests served without a body
	fastMiss  *obs.Counter // header-only requests answered 428

	// svcNanos is an exponentially weighted moving average of compute
	// service time (nanoseconds), feeding the Retry-After estimate.
	svcNanos atomic.Int64

	served map[string]*obs.Counter
}

// New returns a server ready to be attached to an http.Server.
func New(cfg Config) *Server {
	cfg.defaults()
	reg := obs.NewRegistry()
	cfg.Store.Metrics = reg
	s := &Server{
		cfg:     cfg,
		store:   store.New(cfg.Store),
		pool:    newFairQueue(cfg.MaxConcurrent, cfg.MaxQueue),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reg:     reg,
		metrics: newServerMetrics(reg),
		logger:  cfg.Logger,
	}
	obs.RegisterBuildInfo(reg)
	s.abandoned = reg.Counter("seqlearnd_requests_abandoned_total",
		"Requests whose client disconnected mid-queue or mid-run.")
	s.shed = reg.Counter("seqlearnd_requests_shed_total",
		"Requests rejected with 429 because the admission queue was full.")
	s.timedOut = reg.Counter("seqlearnd_requests_timed_out_total",
		"Requests that expired their deadline (504) while queued or mid-run.")
	s.fastPath = reg.Counter("seqlearnd_fingerprint_fast_path_total",
		"Header-only requests served from the resident cache without a netlist body.")
	s.fastMiss = reg.Counter("seqlearnd_fingerprint_fast_misses_total",
		"Header-only requests answered 428 because the fingerprint was not resident.")
	s.served = map[string]*obs.Counter{}
	for _, ep := range computeEndpoints {
		s.served[ep] = reg.Counter("seqlearnd_served_total",
			"Successful compute responses, by endpoint.",
			obs.Label{Key: "endpoint", Value: ep})
	}
	reg.GaugeFunc("seqlearnd_in_flight",
		"Compute requests currently holding a pool slot.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("seqlearnd_queue_depth",
		"Compute requests waiting for a pool slot.",
		func() float64 { return float64(s.pool.Depth()) })

	s.mux.HandleFunc("POST /v1/learn", s.handleLearn)
	s.mux.HandleFunc("POST /v1/atpg", s.handleATPG)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", reg)
	return s
}

// ServeHTTP implements http.Handler: the observability middleware around
// the mux, unless the test-only noInstrumentation bypass is set.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.noInstrumentation {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.observe(w, r)
}

// Store exposes the underlying cache (stats inspection in tests and the
// daemon's shutdown report).
func (s *Server) Store() *store.Store { return s.store }

// acquire admits the request to the compute pool: immediately when a slot
// is free, through the FIFO admission queue when not, and with a 429 +
// Retry-After rejection when the queue is full. ctx is the request's
// effective deadline context (requestContext); expiry while queued
// answers 504, client disconnect 503 — either way the queue position is
// released. It returns a release func, or false after writing the error
// response.
func (s *Server) acquire(w http.ResponseWriter, ctx context.Context, ep string) (func(), bool) {
	enter := time.Now()
	// Fast path: a free slot, no queueing.
	if s.pool.TryAcquire() {
		s.observeQueueWait(ep, time.Since(enter))
		return s.slotAcquired(ep), true
	}

	// Queue for a slot in arrival order. A full queue means the daemon is
	// already pool+queue deep in work; waiting longer only builds an
	// unbounded backlog, so answer now with an honest retry hint instead.
	sp := obs.TraceFrom(ctx).Root().Start("queue_wait")
	err := s.pool.Acquire(ctx)
	sp.End()
	switch {
	case err == nil:
		s.observeQueueWait(ep, time.Since(enter))
		return s.slotAcquired(ep), true
	case errors.Is(err, errQueueFull):
		s.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("compute pool and admission queue full; retry after the advised delay"))
		return nil, false
	default:
		code, cerr := s.cancelStatus(ctx, "while queued")
		s.writeError(w, code, cerr)
		return nil, false
	}
}

// observeQueueWait feeds the per-endpoint queue-wait histogram (absent for
// endpoints outside the compute pool).
func (s *Server) observeQueueWait(ep string, d time.Duration) {
	if h := s.metrics.queueWait[ep]; h != nil {
		h.Observe(d.Seconds())
	}
}

// slotAcquired finalizes a successful pool admission and returns the
// release func, which also feeds the service-time average behind
// Retry-After and the slot-hold histogram.
func (s *Server) slotAcquired(ep string) func() {
	s.inFlight.Add(1)
	start := time.Now()
	return func() {
		held := time.Since(start)
		s.observeService(held)
		if h := s.metrics.slotHold[ep]; h != nil {
			h.Observe(held.Seconds())
		}
		s.inFlight.Add(-1)
		s.pool.Release()
	}
}

// observeService folds one completed request's slot-holding time into the
// EWMA (α = 1/4) behind the Retry-After estimate.
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.svcNanos.Load()
		next := int64(d)
		if old != 0 {
			next = old + (int64(d)-old)/4
		}
		if s.svcNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed client should come back: the
// observed average service time, scaled by how many requests are already
// ahead of it per pool slot. Clamped to [1s, 300s]; before any request
// has completed the average defaults to one second.
func (s *Server) retryAfterSeconds() int {
	avg := time.Duration(s.svcNanos.Load())
	if avg <= 0 {
		avg = time.Second
	}
	ahead := s.pool.Depth() + 1
	wait := avg * time.Duration(ahead) / time.Duration(s.pool.Slots())
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// requestContext derives the compute context for one request: the
// client-disconnect context bounded by the effective deadline — the
// per-request timeout= parameter capped by the server-wide
// RequestTimeout.
func (s *Server) requestContext(r *http.Request, reqTimeout time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if reqTimeout > 0 && (d == 0 || reqTimeout < d) {
		d = reqTimeout
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// cancelStatus classifies a canceled request: an expired deadline is a
// 504 (timed_out), a vanished client a 503 (abandoned). Either way the
// run was stopped at a cooperative checkpoint and never cached.
func (s *Server) cancelStatus(ctx context.Context, when string) (int, error) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.timedOut.Inc()
		return http.StatusGatewayTimeout, fmt.Errorf("request deadline expired %s", when)
	}
	s.abandoned.Inc()
	return http.StatusServiceUnavailable, fmt.Errorf("request abandoned %s", when)
}

// FingerprintHeader is the request header carrying a learning-artifact
// fingerprint for the body-less fast path: a client that already holds the
// fingerprint of (circuit, learn options) — from any instance of a fleet —
// sends just the header, skipping the netlist upload, re-parse and re-hash
// on warm requests. The daemon answers from its resident cache, or with
// 428 Precondition Required when the artifact is not in memory, telling
// the client to re-send the body once (which re-warms this instance).
const FingerprintHeader = "X-Circuit-Fingerprint"

// fastPathArtifact resolves the body-less fingerprint fast path. It
// returns (artifact, true) when the request is header-only and the
// artifact is resident; (nil, true) after writing an error response (400
// malformed, 428 not resident); and (nil, false) when the request carries
// a body — or no fingerprint at all — and should take the parse path.
// Only the in-memory LRU answers: rebuilding from disk needs the circuit
// the fast path exists to not upload.
func (s *Server) fastPathArtifact(w http.ResponseWriter, r *http.Request) (*store.Artifact, bool) {
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" || r.ContentLength != 0 {
		return nil, false
	}
	if !store.ValidFingerprint(fp) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("malformed %s: want 64 lowercase hex digits", FingerprintHeader))
		return nil, true
	}
	art, ok := s.store.Cached(fp)
	if !ok {
		s.fastMiss.Inc()
		s.writeError(w, http.StatusPreconditionRequired,
			fmt.Errorf("fingerprint %s not resident; re-send the netlist body", fp[:12]))
		return nil, true
	}
	s.fastPath.Inc()
	return art, true
}

// readCircuit parses the posted .bench netlist. The display name comes
// from the optional ?name= parameter and never affects caching (the
// fingerprint strips it).
func (s *Server) readCircuit(w http.ResponseWriter, r *http.Request) (*netlist.Circuit, bool) {
	sp := obs.TraceFrom(r.Context()).Root().Start("parse")
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "netlist"
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	c, err := bench.Parse(name, body)
	if err != nil {
		sp.End()
		s.writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	sp.Add("nodes", int64(c.NumNodes()))
	sp.End()
	return c, true
}

// learnArtifact resolves the learning artifact for c through the store
// under the request's "learn" span. An expired or abandoned learning run
// stops at the next injection boundary, frees the caller's slot, and is
// never cached; on cache hits the span closes with no phase children — the
// lookup's own cost. On failure it writes the error response and returns
// false.
func (s *Server) learnArtifact(w http.ResponseWriter, ctx context.Context, c *netlist.Circuit,
	lopt learn.Options) (*store.Artifact, store.Source, bool) {
	lopt.Cancel = ctx.Done()
	lsp := obs.TraceFrom(ctx).Root().Start("learn")
	lopt.Span = lsp
	art, src, err := s.store.Learn(c, lopt)
	lsp.End()
	if err != nil {
		s.writeStoreError(w, ctx, err, http.StatusInternalServerError)
		return nil, src, false
	}
	return art, src, true
}

// writeStoreError answers a failed store call: a canceled run is
// classified by cancelStatus (503 or 504), anything else gets code.
func (s *Server) writeStoreError(w http.ResponseWriter, ctx context.Context, err error, code int) {
	if errors.Is(err, store.ErrCanceled) {
		code, err = s.cancelStatus(ctx, "mid-run")
	}
	s.writeError(w, code, err)
}

func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params, err := learnParamsFromQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	var (
		c   *netlist.Circuit
		art *store.Artifact
		src store.Source
	)
	if fpArt, handled := s.fastPathArtifact(w, r); handled {
		if fpArt == nil {
			return
		}
		// Header-only hit: a pure memory read, no parse and no compute —
		// it bypasses the admission pool the way /v1/stats does.
		art, src, c = fpArt, store.SourceMemory, fpArt.Circuit
	} else {
		var ok bool
		if c, ok = s.readCircuit(w, r); !ok {
			return
		}
	}
	ctx, cancel := s.requestContext(r, params.Timeout)
	defer cancel()
	tr := obs.TraceFrom(ctx)
	if art == nil {
		release, ok := s.acquire(w, ctx, "learn")
		if !ok {
			return
		}
		defer release()

		if art, src, ok = s.learnArtifact(w, ctx, c, params.Options()); !ok {
			return
		}
	}
	s.served["learn"].Inc()
	ffff, gateFF, _ := art.DB.Counts(true)
	resp := LearnResponse{
		Circuit:      c.Name,
		Fingerprint:  art.Fingerprint,
		Cache:        src.String(),
		Relations:    art.DB.Len(),
		FFFF:         ffff,
		GateFF:       gateFF,
		CrossFrame:   art.DB.CrossFrame(),
		CombTies:     len(art.CombTies),
		SeqTies:      len(art.SeqTies),
		EquivClasses: art.EquivClasses,
		ElapsedMS:    ms(time.Since(start)),
	}
	if params.Trace {
		resp.Trace = tr.JSON()
	}
	s.writeJSON(w, resp)
}

func (s *Server) handleATPG(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params, err := atpgParamsFromQuery(r.URL.Query())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	var (
		c   *netlist.Circuit
		art *store.Artifact
		src store.Source
	)
	if fpArt, handled := s.fastPathArtifact(w, r); handled {
		if fpArt == nil {
			return
		}
		// The learning artifact resolves without the body; the ATPG itself
		// still goes through the compute pool below.
		art, src, c = fpArt, store.SourceMemory, fpArt.Circuit
	} else {
		var ok bool
		if c, ok = s.readCircuit(w, r); !ok {
			return
		}
	}
	ctx, cancel := s.requestContext(r, params.Learn.Timeout)
	defer cancel()
	release, ok := s.acquire(w, ctx, "atpg")
	if !ok {
		return
	}
	defer release()

	tr := obs.TraceFrom(ctx)
	if art == nil {
		if art, src, ok = s.learnArtifact(w, ctx, c, params.Learn.Options()); !ok {
			return
		}
	}
	opt, err := params.RunOptions(art)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A client that disconnects — or a deadline that expires — mid-run
	// must not keep the daemon computing: the request context feeds the
	// driver's cooperative cancellation, checked at every fault boundary,
	// and a canceled run is never cached.
	opt.Cancel = ctx.Done()
	asp := tr.Root().Start("atpg")
	opt.Span = asp
	// Resolve through the test-set cache against the artifact's canonical
	// circuit instance: the snapshot's node ids refer to it, and on cache
	// hits it replaces this request's structurally identical parse.
	tart, tsrc, reuse, err := s.store.ATPG(store.ATPGRequest{
		Artifact: art,
		Options:  opt,
		Reuse:    params.Reuse,
	})
	asp.End()
	if err != nil {
		s.writeStoreError(w, ctx, err, http.StatusBadRequest)
		return
	}
	res := &tart.Result
	s.served["atpg"].Inc()
	resp := ATPGResponse{
		Circuit:          c.Name,
		Fingerprint:      art.Fingerprint,
		Cache:            src.String(),
		TestsFingerprint: tart.Fingerprint,
		TestsCache:       tsrc.String(),
		Total:            res.Total,
		Detected:         res.Detected,
		Untestable:       res.Untestable,
		Aborted:          res.Aborted,
		Backtracks:       res.Backtracks,
		Coverage:         res.Coverage(),
		TestCoverage:     res.TestCoverage(),
		Tests:            len(res.Tests),
		TestsCompacted:   res.TestsCompacted,
		VerifyFailures:   res.VerifyFailures,
		PodemFaults:      res.PodemTargets,
		ElapsedMS:        ms(time.Since(start)),
	}
	if reuse != nil {
		resp.ReusedTests = reuse.TestsKept
		resp.SeedDetected = reuse.SeedDetected
		resp.ReuseFingerprint = reuse.Fingerprint
		resp.ReuseDiff = reuse.Diff
	}
	if params.IncludeTests {
		resp.TestVectors = make([][]string, len(res.Tests))
		for i, test := range res.Tests {
			resp.TestVectors[i] = FormatTest(test)
		}
	}
	if params.Learn.Trace {
		resp.Trace = tr.JSON()
	}
	s.writeJSON(w, resp)
}

// SetDraining flips the readiness answer: while draining, /healthz
// returns 503 so load balancers stop routing new work here before the
// listener actually closes. In-flight and already-queued requests still
// complete (http.Server.Shutdown owns that part).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := HealthResponse{
		Status:   "ok",
		UptimeMS: ms(time.Since(s.start)),
		Degraded: s.store.Degraded(),
		Revision: obs.Revision(),
	}
	if s.draining.Load() {
		h.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
		return
	}
	s.writeJSON(w, h)
}

// StatsSnapshot returns the same counters /v1/stats serves; cmd/seqlearnd
// prints it as the shutdown report.
func (s *Server) StatsSnapshot() StatsResponse {
	served := make(map[string]int64, len(s.served))
	for k, v := range s.served {
		served[k] = v.Value()
	}
	cache := s.store.Stats()
	return StatsResponse{
		UptimeMS:   ms(time.Since(s.start)),
		Cache:      cache,
		InFlight:   s.inFlight.Load(),
		Queued:     int64(s.pool.Depth()),
		Abandoned:  s.abandoned.Value(),
		Shed:       s.shed.Value(),
		TimedOut:   s.timedOut.Value(),
		FastPath:   s.fastPath.Value(),
		FastMisses: s.fastMiss.Value(),
		Degraded:   cache.Degraded,
		Draining:   s.draining.Load(),
		Served:     served,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, s.StatsSnapshot())
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the client went away mid-response; the
	// status line is already written, so there is nothing left to report.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// DefaultPool is the suggested MaxConcurrent for a machine-wide daemon:
// half the cores, at least 2, so two heavy requests overlap while each
// still shards widely.
func DefaultPool() int {
	n := runtime.GOMAXPROCS(0) / 2
	if n < 2 {
		n = 2
	}
	return n
}
