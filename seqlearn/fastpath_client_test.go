package seqlearn_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/seqlearn"
)

// TestWaitHealthyDrainingFailsFast: a draining daemon never becomes
// healthy again, so WaitHealthy must answer ErrDraining immediately
// instead of polling out its whole timeout — while a degraded daemon
// (200 with Degraded set) still reads as ready.
func TestWaitHealthyDrainingFailsFast(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := seqlearn.NewClient(ts.URL)
	cl.SetSleepFunc(func(ctx context.Context, d time.Duration) error {
		t.Fatalf("WaitHealthy slept %v instead of failing fast on draining", d)
		return nil
	})

	srv.SetDraining(true)
	start := time.Now()
	err := cl.WaitHealthy(context.Background(), time.Hour)
	if !errors.Is(err, seqlearn.ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("draining detection took %v", elapsed)
	}

	srv.SetDraining(false)
	if err := cl.WaitHealthy(context.Background(), 5*time.Second); err != nil {
		t.Fatalf("recovered daemon not healthy: %v", err)
	}
}

// TestClientFingerprintFastPath: the second request for the same
// (circuit, options) sends only the fingerprint header; when the request
// lands on a cold instance the client transparently falls back to the
// body upload without forgetting the mapping.
func TestClientFingerprintFastPath(t *testing.T) {
	// Two independent daemons behind one URL, swapped mid-test: the
	// second backend has never seen the circuit, so the header-only
	// request draws a 428 there.
	warmSrv := server.New(server.Config{})
	coldSrv := server.New(server.Config{})
	var backend atomic.Pointer[server.Server]
	backend.Store(warmSrv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		backend.Load().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx := context.Background()
	cl := seqlearn.NewClient(ts.URL)
	c := seqlearn.Figure2()

	first, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("first learn: %+v", first)
	}

	// Warm repeat: header only, no body.
	second, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" || second.Fingerprint != first.Fingerprint ||
		second.Relations != first.Relations {
		t.Fatalf("fast-path learn changed the answer: %+v vs %+v", second, first)
	}
	if st := warmSrv.StatsSnapshot(); st.FastPath != 1 || st.FastMisses != 0 {
		t.Fatalf("warm daemon fast-path counters = %d/%d, want 1/0", st.FastPath, st.FastMisses)
	}

	// The ATPG endpoint shares the mapping: its warm request is also
	// body-less.
	at, err := cl.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if at.Cache != "hit" || at.Fingerprint != first.Fingerprint {
		t.Fatalf("fast-path atpg: %+v", at)
	}
	if st := warmSrv.StatsSnapshot(); st.FastPath != 2 {
		t.Fatalf("fast path after atpg = %d, want 2", st.FastPath)
	}

	// Swap to the cold instance: 428, transparent body fallback, mapping
	// kept — the next request to the (now warmed) instance is header-only
	// again.
	backend.Store(coldSrv)
	third, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatalf("fallback after 428 failed: %v", err)
	}
	if third.Cache != "miss" || third.Fingerprint != first.Fingerprint {
		t.Fatalf("cold-instance learn: %+v", third)
	}
	fourth, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cache != "hit" {
		t.Fatalf("re-warmed learn: %+v", fourth)
	}
	st := coldSrv.StatsSnapshot()
	if st.FastMisses != 1 || st.FastPath != 1 {
		t.Fatalf("cold daemon fast-path counters = %d/%d, want 1/1", st.FastPath, st.FastMisses)
	}

	// Distinct learn options select a different artifact and must not ride
	// the cached fingerprint.
	other, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{SingleOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint == first.Fingerprint {
		t.Fatal("distinct options share a fingerprint")
	}
}

// TestClientTenantHeader: SetTenant flows through to the daemon's
// per-tenant accounting.
func TestClientTenantHeader(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := seqlearn.NewClient(ts.URL)
	cl.SetTenant("ci-bots")
	if _, err := cl.Learn(context.Background(), seqlearn.Figure2(), seqlearn.ServiceLearnParams{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.StatsSnapshot(); st.Tenants["ci-bots"].Requests != 1 {
		t.Fatalf("tenant stats = %+v", st.Tenants)
	}
}

// TestClientRejectsMalformedFingerprint: a daemon answer with an empty
// fingerprint is an error, and the client does not cache it — the next
// request uploads the body again instead of sending a header the daemon
// would reject with 400.
func TestClientRejectsMalformedFingerprint(t *testing.T) {
	var headers, bodies atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(server.FingerprintHeader) != "" {
			headers.Add(1)
		}
		if r.ContentLength != 0 {
			bodies.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"fingerprint":""}`))
	}))
	defer ts.Close()

	ctx := context.Background()
	cl := seqlearn.NewClient(ts.URL)
	c := seqlearn.Figure2()
	for i := 0; i < 2; i++ {
		if _, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{}); err == nil {
			t.Fatalf("learn %d: empty fingerprint accepted", i)
		}
	}
	if _, err := cl.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{}); err == nil {
		t.Fatal("atpg: empty fingerprint accepted")
	}
	if h, b := headers.Load(), bodies.Load(); h != 0 || b != 3 {
		t.Fatalf("requests with fingerprint header = %d, with body = %d; want 0 and 3 (nothing cached)", h, b)
	}
}
