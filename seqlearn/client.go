package seqlearn

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/store"
)

// Service request/response types, shared with the daemon so client and
// server cannot drift. See cmd/seqlearnd and internal/server for the wire
// protocol (POST the .bench netlist, options as query parameters, JSON
// back).
type (
	// ServiceLearnParams configures a remote learning request.
	ServiceLearnParams = server.LearnParams
	// ServiceATPGParams configures a remote test-generation request.
	ServiceATPGParams = server.ATPGParams
	// ServiceLearnResult is the answer of a remote learning request.
	ServiceLearnResult = server.LearnResponse
	// ServiceATPGResult is the answer of a remote test-generation request.
	ServiceATPGResult = server.ATPGResponse
	// ServiceStats is the daemon's cache/pool counter snapshot.
	ServiceStats = server.StatsResponse
	// ServiceHealth is the daemon's liveness answer.
	ServiceHealth = server.HealthResponse
)

// ErrDraining reports that the daemon answered its health probe with
// "draining": it is shutting down and will not become healthy again, so
// waiting longer is pointless. WaitHealthy fails fast with this error
// (wrapped; test with errors.Is) instead of burning its whole timeout —
// the caller should pick another instance. A daemon that is merely
// degraded (disk cache lost, memory-only) still answers 200/"ok" and
// reads as healthy.
var ErrDraining = errors.New("seqlearn: daemon is draining")

// RetryPolicy configures the client's automatic retry of compute
// requests. Retries cover only idempotent outcomes — transport errors
// where no response arrived, 429 (admission queue full), 502 and 503
// (daemon restarting or a proxy between us and it). A 504 is never
// retried: the deadline is the caller's contract and the daemon already
// spent it. Backoff is capped exponential with full jitter on the upper
// half; a Retry-After header from the daemon raises the wait (still
// capped at MaxDelay so one pessimistic estimate cannot park the client
// for minutes).
type RetryPolicy struct {
	// MaxAttempts bounds the total number of tries, the first included
	// (default 4; 1 disables retrying).
	MaxAttempts int
	// BaseDelay is the first backoff (default 100ms); attempt n waits
	// about BaseDelay·2ⁿ⁻¹, jittered.
	BaseDelay time.Duration
	// MaxDelay caps every wait, Retry-After included (default 5s).
	MaxDelay time.Duration
}

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// Client is a thin client for a seqlearnd daemon: it serializes circuits
// to the .bench wire form, posts them, and decodes the JSON answers.
// The zero Client is not usable; construct with NewClient. A Client is
// safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy

	// fps remembers the daemon-reported learning-artifact fingerprint per
	// (circuit, learn options): warm repeat requests send just the
	// X-Circuit-Fingerprint header instead of re-uploading the netlist.
	// Fingerprints are content addresses, so a mapping is never wrong —
	// a 428 miss only means that instance is cold, and the body path
	// re-warms it without invalidating the mapping.
	fps sync.Map // fpKey -> string

	// sleep waits between retries and health probes; tests inject a
	// virtual clock here so backoff paths run without real sleeps.
	sleep func(context.Context, time.Duration) error
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:8344"). There is no request timeout by default —
// learning a large netlist legitimately takes minutes; use SetHTTPClient
// to bound it. Compute requests retry per the default RetryPolicy; use
// SetRetryPolicy to tune or disable that.
func NewClient(base string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		hc:    &http.Client{},
		retry: RetryPolicy{}.normalized(),
		sleep: sleepCtx,
	}
}

// SetHTTPClient replaces the underlying HTTP client (timeouts, transport
// tuning, test doubles).
func (cl *Client) SetHTTPClient(hc *http.Client) { cl.hc = hc }

// SetRetryPolicy replaces the compute-request retry policy. Zero fields
// take their defaults; RetryPolicy{MaxAttempts: 1} disables retrying.
// Stats, Health and WaitHealthy never retry internally regardless — a
// probe must report the daemon's state now, not eventually.
func (cl *Client) SetRetryPolicy(p RetryPolicy) { cl.retry = p.normalized() }

// fpKey identifies a learning artifact from the client's side: the
// circuit instance plus the learning options that shape the result.
// (Workers, timeouts and tracing are execution knobs — the daemon's
// fingerprint ignores them, so the key does too.)
type fpKey struct {
	c    *Circuit
	opts string
}

func learnFPKey(c *Circuit, p ServiceLearnParams) fpKey {
	return fpKey{c, fmt.Sprintf("%d|%t|%t|%t", p.MaxFrames, p.SingleOnly, p.SkipComb, p.NoEarlyStop)}
}

// Learn asks the daemon for the learned implication summary of c,
// resolving through the daemon's snapshot cache. Canceling ctx aborts the
// request immediately; the daemon notices the disconnect and stops
// computing at the next checkpoint. A repeat Learn for the same circuit
// and options sends only the artifact fingerprint (no netlist body); if
// the daemon answers 428 — another instance, or an evicted cache — the
// client transparently falls back to the body upload.
func (cl *Client) Learn(ctx context.Context, c *Circuit, p ServiceLearnParams) (*ServiceLearnResult, error) {
	return postWarm(ctx, cl, "/v1/learn", p.Query(), c, learnFPKey(c, p),
		func(r *ServiceLearnResult) string { return r.Fingerprint })
}

// GenerateTests runs remote ATPG on c. Results are bit-identical to a
// local GenerateTests with the same options — the daemon runs the same
// engines against a cached snapshot. Canceling ctx abandons the run; the
// daemon stops at the next fault boundary and frees its compute slot.
// Like Learn, a known artifact fingerprint replaces the netlist body on
// warm requests, with an automatic body fallback on a 428 miss.
func (cl *Client) GenerateTests(ctx context.Context, c *Circuit, p ServiceATPGParams) (*ServiceATPGResult, error) {
	res, err := postWarm(ctx, cl, "/v1/atpg", p.Query(), c, learnFPKey(c, p.Learn),
		func(r *ServiceATPGResult) string { return r.Fingerprint })
	if err == nil && res.ReuseFingerprint != "" && !store.ValidFingerprint(res.ReuseFingerprint) {
		return nil, fmt.Errorf("seqlearn: client: daemon answered malformed reuse fingerprint %q", res.ReuseFingerprint)
	}
	return res, err
}

// Stats fetches the daemon's cache and worker-pool counters.
func (cl *Client) Stats(ctx context.Context) (*ServiceStats, error) {
	return get[ServiceStats](ctx, cl, "/v1/stats")
}

// Health checks daemon liveness.
func (cl *Client) Health(ctx context.Context) (*ServiceHealth, error) {
	return get[ServiceHealth](ctx, cl, "/healthz")
}

func post[T any](ctx context.Context, cl *Client, path string, q url.Values, c *Circuit) (*T, error) {
	var body bytes.Buffer
	if err := bench.Write(&body, c); err != nil {
		return nil, fmt.Errorf("seqlearn: client: serialize %s: %w", c.Name, err)
	}
	q.Set("name", c.Name)
	res, _, err := request[T](ctx, cl, path, q, body.Bytes(), "")
	return res, err
}

// postWarm is the compute request of every endpoint that resolves a
// learning artifact: header-only when the client knows the artifact's
// fingerprint, the body upload otherwise or after a 428 miss. The answer's
// fingerprint is checked before it is cached — a malformed one would make
// every later warm request send a header the daemon rejects with 400, not
// 428, so the client would never fall back to the body.
func postWarm[T any](ctx context.Context, cl *Client, path string, q url.Values, c *Circuit, key fpKey, fingerprint func(*T) string) (*T, error) {
	if fp, ok := cl.fps.Load(key); ok {
		res, miss, err := postFingerprint[T](ctx, cl, path, q, c.Name, fp.(string))
		if !miss {
			return res, err
		}
	}
	res, err := post[T](ctx, cl, path, q, c)
	if err != nil {
		return nil, err
	}
	fp := fingerprint(res)
	if !store.ValidFingerprint(fp) {
		return nil, fmt.Errorf("seqlearn: client: %s answered malformed fingerprint %q", path, fp)
	}
	cl.fps.Store(key, fp)
	return res, nil
}

// postFingerprint sends the body-less fast-path request: just the
// X-Circuit-Fingerprint header. The second result reports a 428 miss —
// the daemon does not hold the artifact and the caller should fall back
// to the body path.
func postFingerprint[T any](ctx context.Context, cl *Client, path string, q url.Values, name, fp string) (*T, bool, error) {
	q.Set("name", name)
	return request[T](ctx, cl, path, q, nil, fp)
}

// request is the shared compute-request loop: replayable body, optional
// fingerprint header, retry policy. The bool result is
// the fast-path miss signal (428; only possible when fp is set).
func request[T any](ctx context.Context, cl *Client, path string, q url.Values, body []byte, fp string) (*T, bool, error) {
	u := cl.base + path + "?" + q.Encode()
	pol := cl.retry
	for attempt := 1; ; attempt++ {
		// The serialized netlist is buffered once; every attempt replays
		// the same bytes.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, false, fmt.Errorf("seqlearn: client: %w", err)
		}
		req.Header.Set("Content-Type", "text/plain")
		if fp != "" {
			req.Header.Set(server.FingerprintHeader, fp)
		}
		resp, err := cl.hc.Do(req)
		last := attempt >= pol.MaxAttempts
		if err != nil {
			// Transport failure: no response arrived, so nothing ran to
			// completion and a retry is safe — unless the caller's own
			// context ended the request.
			if last || ctx.Err() != nil {
				return nil, false, fmt.Errorf("seqlearn: client: %w", err)
			}
		} else if fp != "" && resp.StatusCode == http.StatusPreconditionRequired {
			// This instance does not hold the artifact; tell the caller to
			// re-send the body (which re-warms it). The mapping stays — the
			// fingerprint is a content address and cannot go stale.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil, true, nil
		} else if last || !retryableStatus(resp.StatusCode) {
			res, err := decode[T](path, resp)
			return res, false, err
		} else {
			// A shed or unavailable daemon told us to come back; honor its
			// Retry-After in the backoff and drop the body.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = cl.sleep(ctx, pol.delay(attempt, retryAfter(resp)))
			if err != nil {
				return nil, false, fmt.Errorf("seqlearn: client: %s retry abandoned: %w", path, err)
			}
			continue
		}
		if err := cl.sleep(ctx, pol.delay(attempt, 0)); err != nil {
			return nil, false, fmt.Errorf("seqlearn: client: %s retry abandoned: %w", path, err)
		}
	}
}

// retryableStatus reports whether a response status is safe and useful to
// retry: the daemon shed the request before running it (429), or an
// infrastructure layer failed it (502/503). 504 is excluded — the
// deadline was the caller's budget and it has been spent.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// retryAfter parses the Retry-After header of a rejection: RFC 9110
// allows both delta-seconds and an HTTP-date. Returns 0 when absent,
// malformed, or (for the date form) already in the past.
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if when, err := http.ParseTime(v); err == nil {
		if d := time.Until(when); d > 0 {
			return d
		}
	}
	return 0
}

// delay computes the wait before the next attempt: capped exponential
// backoff with full jitter on the upper half, raised to the server's
// Retry-After advice, everything capped at MaxDelay.
func (p RetryPolicy) delay(attempt int, advised time.Duration) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	d = d/2 + rand.N(d/2+1)
	if advised > d {
		d = advised
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// sleepCtx waits d or until ctx ends, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func get[T any](ctx context.Context, cl *Client, path string) (*T, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("seqlearn: client: %w", err)
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("seqlearn: client: %w", err)
	}
	return decode[T](path, resp)
}

func decode[T any](path string, resp *http.Response) (*T, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("seqlearn: client: read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("seqlearn: daemon %s: %s", resp.Status, e.Error)
		}
		return nil, fmt.Errorf("seqlearn: daemon %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, fmt.Errorf("seqlearn: client: decode %s: %w", path, err)
	}
	return out, nil
}

// WaitHealthy polls /healthz until the daemon answers "ok", the deadline
// passes, or ctx is canceled — the startup handshake for scripts and tests
// that just spawned a daemon process. Probes back off exponentially (5ms
// doubling to a 250ms ceiling), so a fast-starting daemon is noticed in
// milliseconds without hammering a slow one.
//
// Two 503s look alike but mean opposite things, so WaitHealthy reads the
// health body: a "draining" daemon is shutting down and will never become
// healthy — fail immediately with ErrDraining instead of spending the
// whole timeout on it. A degraded daemon (disk cache lost) answers 200
// and reads as healthy: it still serves correct results from memory.
func (cl *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	const maxProbeGap = 250 * time.Millisecond
	gap := 5 * time.Millisecond
	for {
		err := cl.probeHealth(ctx)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrDraining) {
			return fmt.Errorf("seqlearn: daemon at %s: %w", cl.base, err)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("seqlearn: waiting for daemon at %s: %w", cl.base, ctx.Err())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("seqlearn: daemon at %s not healthy after %v: %w", cl.base, timeout, err)
		}
		if err := cl.sleep(ctx, gap); err != nil {
			return fmt.Errorf("seqlearn: waiting for daemon at %s: %w", cl.base, err)
		}
		if gap *= 2; gap > maxProbeGap {
			gap = maxProbeGap
		}
	}
}

// probeHealth fetches /healthz once and classifies the answer: nil for a
// ready daemon (degraded-but-ready included), ErrDraining (wrapped) for a
// shutting-down one, a transport or status error otherwise. Unlike Health
// it decodes the body on non-200 answers, because the draining signal is
// a 503 whose body says why.
func (cl *Client) probeHealth(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("seqlearn: client: %w", err)
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return fmt.Errorf("seqlearn: client: %w", err)
	}
	defer resp.Body.Close()
	var h ServiceHealth
	if jsonErr := json.NewDecoder(resp.Body).Decode(&h); jsonErr == nil && h.Status == "draining" {
		return ErrDraining
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("seqlearn: daemon %s", resp.Status)
	}
	return nil
}
