package seqlearn_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/seqlearn"
)

// TestClientAgainstInProcessDaemon drives the full client surface against
// a daemon mounted on a loopback listener, and checks the served ATPG
// results agree with a direct in-process run of the same configuration.
func TestClientAgainstInProcessDaemon(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	ctx := context.Background()
	cl := seqlearn.NewClient(ts.URL)
	if err := cl.WaitHealthy(ctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	c := seqlearn.Figure2()

	lr, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Cache != "miss" || lr.Relations == 0 {
		t.Fatalf("learn response: %+v", lr)
	}
	local := seqlearn.Learn(c, seqlearn.LearnOptions{})
	if lr.Relations != local.DB.Len() {
		t.Fatalf("remote learned %d relations, local %d", lr.Relations, local.DB.Len())
	}

	at, err := cl.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{Mode: "forbidden", Backtracks: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if at.Cache != "hit" {
		t.Fatalf("atpg request missed the snapshot cache: %+v", at)
	}
	if at.TestsCache != "miss" {
		t.Fatalf("first atpg request should miss the test-set cache: %+v", at)
	}
	direct := seqlearn.GenerateTests(c, seqlearn.RunOptions{
		Parallelism: 1,
		ATPG: seqlearn.ATPGOptions{
			BacktrackLimit: 1000,
			Mode:           seqlearn.ModeForbidden,
			DB:             local.DB,
			Ties:           append(append([]seqlearn.Tie{}, local.CombTies...), local.SeqTies...),
			FillSeed:       0x7e57,
		},
	})
	if at.Total != direct.Total || at.Detected != direct.Detected ||
		at.Untestable != direct.Untestable || at.Aborted != direct.Aborted {
		t.Fatalf("remote ATPG differs from local: %+v vs %+v", at, direct)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Learns != 1 || stats.Served["atpg"] != 1 {
		t.Fatalf("daemon stats: %+v", stats)
	}
}

func TestClientErrorsSurfaceDaemonMessage(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	cl := seqlearn.NewClient(ts.URL)
	_, err := cl.GenerateTests(context.Background(), seqlearn.Figure2(), seqlearn.ServiceATPGParams{Mode: "psychic"})
	if err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestClientContextCancellation checks a canceled context aborts the
// client call instead of blocking on the daemon.
func TestClientContextCancellation(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}))
	defer ts.Close()
	cl := seqlearn.NewClient(ts.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Learn(ctx, seqlearn.Figure2(), seqlearn.ServiceLearnParams{}); err == nil {
		t.Fatal("canceled context did not abort the request")
	}
}

// fastRetry is the retry policy the de-flaked tests use. Delays never
// actually elapse — instantClock swallows them — so the values are the
// production defaults, and the tests assert on the recorded waits
// instead of racing a wall clock.
var fastRetry = seqlearn.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 5 * time.Second}

// instantClock replaces the client's retry/probe sleeper with a recorder
// that returns immediately: backoff paths run deterministically with no
// real sleeps (so these tests stay fast and non-flaky under -race).
func instantClock(cl *seqlearn.Client) func() []time.Duration {
	var mu sync.Mutex
	var waits []time.Duration
	cl.SetSleepFunc(func(ctx context.Context, d time.Duration) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		mu.Lock()
		waits = append(waits, d)
		mu.Unlock()
		return nil
	})
	return func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), waits...)
	}
}

// TestClientRetriesShedRequests: a daemon that sheds twice and then
// serves must look like one successful call — with the full netlist body
// replayed on every attempt, and every backoff capped at MaxDelay.
func TestClientRetriesShedRequests(t *testing.T) {
	var attempts atomic.Int64
	real := server.New(server.Config{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && attempts.Add(1) <= 2 {
			// Shed with an extravagant Retry-After: the client must cap it
			// at MaxDelay instead of parking for half a minute.
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Retry-After", "30")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	cl := seqlearn.NewClient(ts.URL)
	cl.SetRetryPolicy(fastRetry)
	waits := instantClock(cl)
	lr, err := cl.Learn(context.Background(), seqlearn.Figure2(), seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatalf("retrying client gave up: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two sheds, one success)", got)
	}
	if lr.Cache != "miss" || lr.Relations == 0 {
		t.Fatalf("served response after retries: %+v", lr)
	}
	got := waits()
	if len(got) != 2 {
		t.Fatalf("recorded %d backoff waits, want 2: %v", len(got), got)
	}
	for i, d := range got {
		// Retry-After said 30s; the policy must clamp to MaxDelay exactly.
		if d != fastRetry.MaxDelay {
			t.Fatalf("wait %d = %v, want Retry-After capped at MaxDelay %v", i, d, fastRetry.MaxDelay)
		}
	}
}

// TestClientDoesNotRetryTimeouts: 504 means the request's own deadline
// was spent — retrying would silently double the caller's budget.
func TestClientDoesNotRetryTimeouts(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]string{"error": "request deadline expired mid-run"})
	}))
	defer ts.Close()

	cl := seqlearn.NewClient(ts.URL)
	cl.SetRetryPolicy(fastRetry)
	waits := instantClock(cl)
	_, err := cl.Learn(context.Background(), seqlearn.Figure2(), seqlearn.ServiceLearnParams{})
	if err == nil || !strings.Contains(err.Error(), "deadline expired") {
		t.Fatalf("err = %v, want the daemon's 504 message", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("attempts = %d, want exactly 1 (504 is not retryable)", got)
	}
	if got := waits(); len(got) != 0 {
		t.Fatalf("504 triggered backoff waits: %v", got)
	}
}

// TestClientRetryGivesUp: a persistently overloaded daemon costs exactly
// MaxAttempts tries and then surfaces its rejection.
func TestClientRetryGivesUp(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "restarting"})
	}))
	defer ts.Close()

	cl := seqlearn.NewClient(ts.URL)
	cl.SetRetryPolicy(fastRetry)
	waits := instantClock(cl)
	if _, err := cl.Learn(context.Background(), seqlearn.Figure2(), seqlearn.ServiceLearnParams{}); err == nil {
		t.Fatal("persistent 503 reported success")
	}
	if got := attempts.Load(); got != int64(fastRetry.MaxAttempts) {
		t.Fatalf("attempts = %d, want %d", got, fastRetry.MaxAttempts)
	}
	// Exponential shape, capped: each wait at least doubles until MaxDelay,
	// and none exceeds it.
	got := waits()
	if len(got) != fastRetry.MaxAttempts-1 {
		t.Fatalf("recorded %d waits, want %d: %v", len(got), fastRetry.MaxAttempts-1, got)
	}
	for i, d := range got {
		if d <= 0 || d > fastRetry.MaxDelay {
			t.Fatalf("wait %d = %v, outside (0, %v]", i, d, fastRetry.MaxDelay)
		}
	}

	// Probes never retry internally: one 503 is one failed Stats call.
	attempts.Store(0)
	if _, err := cl.Stats(context.Background()); err == nil {
		t.Fatal("Stats on a 503 daemon reported success")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("Stats attempts = %d, want 1 (GETs are single-shot)", got)
	}
}
