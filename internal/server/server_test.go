package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/store"
)

func benchText(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var sb strings.Builder
	if err := bench.Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func post[T any](t *testing.T, ts *httptest.Server, path string, q url.Values, body string) T {
	t.Helper()
	u := ts.URL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Post(u, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, data)
	}
	return out
}

func get[T any](t *testing.T, ts *httptest.Server, path string) T {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	return out
}

func TestLearnEndpointCacheFlow(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	first := post[LearnResponse](t, ts, "/v1/learn", nil, body)
	if first.Cache != "miss" {
		t.Fatalf("first learn cache = %q, want miss", first.Cache)
	}
	if first.Relations == 0 || first.Fingerprint == "" {
		t.Fatalf("empty learn response: %+v", first)
	}

	second := post[LearnResponse](t, ts, "/v1/learn", nil, body)
	if second.Cache != "hit" {
		t.Fatalf("second learn cache = %q, want hit", second.Cache)
	}
	if second.Relations != first.Relations || second.Fingerprint != first.Fingerprint ||
		second.FFFF != first.FFFF || second.GateFF != first.GateFF {
		t.Fatalf("cache hit changed the answer: %+v vs %+v", first, second)
	}

	// The display name must not fragment the cache.
	renamed := post[LearnResponse](t, ts, "/v1/learn", url.Values{"name": {"other"}}, body)
	if renamed.Cache != "hit" || renamed.Circuit != "other" {
		t.Fatalf("renamed request: %+v", renamed)
	}

	health := get[HealthResponse](t, ts, "/healthz")
	if health.Status != "ok" {
		t.Fatalf("health = %+v", health)
	}
	stats := get[StatsResponse](t, ts, "/v1/stats")
	if stats.Cache.Learns != 1 || stats.Served["learn"] != 3 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestATPGEndpointMatchesDirect(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := gen.MustBuild("s953")
	params := ATPGParams{
		Mode:         "forbidden",
		Backtracks:   30,
		MaxFaults:    120,
		Workers:      1,
		IncludeTests: true,
	}
	got := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), benchText(t, c))

	// Direct in-process run with the same option mapping.
	st := store.New(store.Options{})
	art, _, err := st.Learn(c, params.Learn.Options())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := params.RunOptions(art)
	if err != nil {
		t.Fatal(err)
	}
	want := atpg.Run(c, opt)

	if got.Total != want.Total || got.Detected != want.Detected ||
		got.Untestable != want.Untestable || got.Aborted != want.Aborted ||
		got.Backtracks != want.Backtracks || got.Tests != len(want.Tests) {
		t.Fatalf("served run differs from direct run:\nserved %+v\ndirect %+v", got, want)
	}
	for i, test := range want.Tests {
		if !reflect.DeepEqual(got.TestVectors[i], FormatTest(test)) {
			t.Fatalf("test %d differs: %v vs %v", i, got.TestVectors[i], FormatTest(test))
		}
	}
	if got.VerifyFailures != 0 {
		t.Fatalf("verify failures: %d", got.VerifyFailures)
	}
}

// TestConcurrentRequestsSingleLearn is the store-correctness-under-load
// gate (run with -race in CI): 32 concurrent ATPG requests for the same
// circuit must trigger exactly one learning run, and every served result
// must be bit-identical to a direct in-process atpg.Run with the same
// options.
func TestConcurrentRequestsSingleLearn(t *testing.T) {
	const requests = 32
	// The queue must hold the whole burst: this test is about coalescing,
	// not admission control (which TestQueueFullSheds covers).
	srv := New(Config{MaxConcurrent: 4, MaxQueue: requests})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	c := gen.MustBuild("s953")
	body := benchText(t, c)
	params := ATPGParams{
		Mode:         "forbidden",
		Backtracks:   30,
		MaxFaults:    60,
		Workers:      1,
		IncludeTests: true,
	}

	// The reference: a direct run sharing no state with the daemon.
	art, _, err := store.New(store.Options{}).Learn(gen.MustBuild("s953"), params.Learn.Options())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := params.RunOptions(art)
	if err != nil {
		t.Fatal(err)
	}
	want := atpg.Run(art.Circuit, opt)
	wantVectors := make([][]string, len(want.Tests))
	for i, test := range want.Tests {
		wantVectors[i] = FormatTest(test)
	}

	results := make([]ATPGResponse, requests)
	var wg sync.WaitGroup
	wg.Add(requests)
	for i := 0; i < requests; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), body)
		}(i)
	}
	wg.Wait()

	if learns := srv.Store().Stats().Learns; learns != 1 {
		t.Fatalf("learning runs = %d, want exactly 1 (stats %+v)", learns, srv.Store().Stats())
	}
	for i, got := range results {
		if got.Total != want.Total || got.Detected != want.Detected ||
			got.Untestable != want.Untestable || got.Aborted != want.Aborted ||
			got.Backtracks != want.Backtracks || got.Tests != len(want.Tests) {
			t.Fatalf("response %d differs from direct run:\nserved %+v\ndirect total=%d detected=%d untestable=%d aborted=%d backtracks=%d tests=%d",
				i, got, want.Total, want.Detected, want.Untestable, want.Aborted, want.Backtracks, len(want.Tests))
		}
		if !reflect.DeepEqual(got.TestVectors, wantVectors) {
			t.Fatalf("response %d test vectors differ", i)
		}
		if got.VerifyFailures != 0 {
			t.Fatalf("response %d: verify failures", i)
		}
	}
}

func TestFaultSimEndpointMatchesDirect(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := circuits.Figure2()
	resp := post[FaultSimResponse](t, ts, "/v1/faultsim",
		FaultSimParams{Frames: 16, Seed: 42, Workers: 1}.Query(), benchText(t, c))
	if resp.Frames != 16 || resp.Faults == 0 {
		t.Fatalf("faultsim response: %+v", resp)
	}
	// Determinism: same seed, same answer.
	again := post[FaultSimResponse](t, ts, "/v1/faultsim",
		FaultSimParams{Frames: 16, Seed: 42, Workers: 1}.Query(), benchText(t, c))
	if resp.Detected != again.Detected || resp.Coverage != again.Coverage {
		t.Fatalf("faultsim not deterministic: %+v vs %+v", resp, again)
	}
	other := post[FaultSimResponse](t, ts, "/v1/faultsim",
		FaultSimParams{Frames: 16, Seed: 43, Workers: 1}.Query(), benchText(t, c))
	if other.Faults != resp.Faults {
		t.Fatalf("fault universe changed with the seed: %+v", other)
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	for _, tc := range []struct {
		name, method, path string
		body               string
		wantCode           int
	}{
		{"bad bench", "POST", "/v1/learn", "WIBBLE(", http.StatusBadRequest},
		{"bad mode", "POST", "/v1/atpg?mode=psychic", body, http.StatusBadRequest},
		{"bad int", "POST", "/v1/learn?max_frames=many", body, http.StatusBadRequest},
		{"bad bool", "POST", "/v1/atpg?compact=maybe", body, http.StatusBadRequest},
		{"max_window over cap", "POST", "/v1/atpg?max_window=65", body, http.StatusBadRequest},
		{"negative frames", "POST", "/v1/faultsim?frames=-1", body, http.StatusBadRequest},
		// Misspelled or unsupported parameters are rejected, not silently
		// ignored: a remote ablation run that dropped no_early_stop would
		// report the wrong experiment.
		{"unknown learn param", "POST", "/v1/learn?no_earlystop=1", body, http.StatusBadRequest},
		{"atpg param on learn", "POST", "/v1/learn?backtracks=30", body, http.StatusBadRequest},
		{"unknown atpg param", "POST", "/v1/atpg?backtrack=30", body, http.StatusBadRequest},
		{"removed partition param", "POST", "/v1/atpg?partition=0/2", body, http.StatusBadRequest},
		{"unknown faultsim param", "POST", "/v1/faultsim?frame=12", body, http.StatusBadRequest},
		{"wrong method", "GET", "/v1/learn", "", http.StatusMethodNotAllowed},
		{"unknown path", "POST", "/v1/psychic", body, http.StatusNotFound},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
	}
}

// TestSizeParamsBounded checks the query decoders reject negative and
// over-cap size parameters before any handler sizes an allocation or a
// loop from them. Unbounded, max_window=2^63-1 makes the window doubling
// wrap around and append forever while holding a pool slot.
func TestSizeParamsBounded(t *testing.T) {
	decoders := map[string]func(url.Values) error{
		"learn":    func(q url.Values) error { _, err := learnParamsFromQuery(q); return err },
		"atpg":     func(q url.Values) error { _, err := atpgParamsFromQuery(q); return err },
		"faultsim": func(q url.Values) error { _, err := faultSimParamsFromQuery(q); return err },
	}
	for _, tc := range []struct {
		endpoint, query string
		ok              bool
	}{
		{"atpg", "max_window=9223372036854775807", false},
		{"atpg", "max_window=65", false},
		{"atpg", "max_window=-1", false},
		{"atpg", "max_window=64", true},
		{"atpg", "max_window=8", true},
		{"atpg", "max_frames=1001", false},
		{"learn", "max_frames=9223372036854775807", false},
		{"learn", "max_frames=-1", false},
		{"learn", "max_frames=1000", true},
		{"faultsim", "frames=9223372036854775807", false},
		{"faultsim", "frames=-1", false},
		{"faultsim", "frames=4096", true},
	} {
		q, err := url.ParseQuery(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		if err := decoders[tc.endpoint](q); (err == nil) != tc.ok {
			t.Errorf("%s?%s: err = %v, want ok = %v", tc.endpoint, tc.query, err, tc.ok)
		}
	}
}

// TestATPGTestsCacheServesIdenticalResult: a repeat ATPG request must be
// served whole from the test-set cache — same counts, same vectors, no
// second PODEM run.
func TestATPGTestsCacheServesIdenticalResult(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, gen.MustBuild("s953"))
	params := ATPGParams{
		Mode:         "forbidden",
		Backtracks:   30,
		MaxFaults:    120,
		Workers:      1,
		IncludeTests: true,
	}

	first := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), body)
	if first.TestsCache != "miss" || first.TestsFingerprint == "" {
		t.Fatalf("first atpg: tests_cache=%q tests_fingerprint=%q", first.TestsCache, first.TestsFingerprint)
	}

	second := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), body)
	if second.TestsCache != "hit" {
		t.Fatalf("second atpg tests_cache = %q, want hit", second.TestsCache)
	}
	if second.TestsFingerprint != first.TestsFingerprint ||
		second.Total != first.Total || second.Detected != first.Detected ||
		second.Untestable != first.Untestable || second.Aborted != first.Aborted ||
		second.Backtracks != first.Backtracks || second.Tests != first.Tests ||
		!reflect.DeepEqual(second.TestVectors, first.TestVectors) {
		t.Fatalf("cache hit changed the answer:\nfirst  %+v\nsecond %+v", first, second)
	}
	if runs := srv.Store().Stats().ATPGRuns; runs != 1 {
		t.Fatalf("atpg runs = %d, want exactly 1", runs)
	}
}

// TestATPGReuseEndpoint drives the incremental path over HTTP: generate for
// a base circuit, then request a one-gate revision with reuse=auto.
func TestATPGReuseEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	c := gen.MustBuild("s953")
	params := ATPGParams{Mode: "forbidden", Backtracks: 30, MaxFaults: 120, Workers: 1}

	base := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), benchText(t, c))

	mutated := strings.Replace(benchText(t, c), " = AND(", " = NAND(", 1)
	reuseParams := params
	reuseParams.Reuse = "auto"
	inc := post[ATPGResponse](t, ts, "/v1/atpg", reuseParams.Query(), mutated)
	if inc.TestsCache != "miss" {
		t.Fatalf("incremental request tests_cache = %q, want miss (it ran)", inc.TestsCache)
	}
	if inc.ReuseFingerprint != base.TestsFingerprint {
		t.Fatalf("reuse seed = %q, want the base artifact %q", inc.ReuseFingerprint, base.TestsFingerprint)
	}
	if inc.ReusedTests == 0 || inc.SeedDetected == 0 {
		t.Fatalf("seed replay detected nothing: %+v", inc)
	}
	if inc.PodemFaults >= inc.Total {
		t.Fatalf("podem searched %d of %d faults — replay saved nothing", inc.PodemFaults, inc.Total)
	}
	if inc.ReuseDiff == "" {
		t.Fatal("reuse diff empty; the one-gate revision should be reported")
	}
	if inc.Detected+inc.Untestable+inc.Aborted != inc.Total {
		t.Fatalf("incremental classification does not cover the fault list: %+v", inc)
	}

	// An unknown explicit fingerprint is a request error, and malformed
	// values (short, traversal) are rejected before they reach any slicing
	// or disk-path construction — reuse=a used to panic the handler on a
	// daemon started with -cache-dir.
	for _, bad := range []string{strings.Repeat("f", 64), "a", "../../etc/passwd"} {
		badParams := params
		badParams.Reuse = bad
		resp, err := http.Post(ts.URL+"/v1/atpg?"+badParams.Query().Encode(), "text/plain", strings.NewReader(mutated))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("reuse=%q: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// The cached incremental artifact is a pure function of its key: a
	// repeat exact-key request (no reuse asked) hits the cache without
	// reporting the seeded run's provenance.
	hit := post[ATPGResponse](t, ts, "/v1/atpg", reuseParams.Query(), mutated)
	if hit.TestsCache != "hit" {
		t.Fatalf("repeat request tests_cache = %q, want hit", hit.TestsCache)
	}
	if hit.ReusedTests != 0 || hit.SeedDetected != 0 || hit.ReuseFingerprint != "" {
		t.Fatalf("cache hit reports reuse the requester never got: %+v", hit)
	}
	if hit.Detected != inc.Detected || hit.Tests != inc.Tests {
		t.Fatalf("cache hit changed the answer: %+v vs %+v", hit, inc)
	}
}

// TestClientDisconnectFreesSlot is the mid-run abandonment gate: a client
// that vanishes during ATPG must not leave the daemon computing or holding
// the compute slot. With MaxConcurrent=1 a leaked slot would wedge the
// daemon permanently.
func TestClientDisconnectFreesSlot(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A run that takes many seconds uncancelled: the full s953 fault list.
	body := benchText(t, gen.MustBuild("s953"))
	params := ATPGParams{Mode: "forbidden", Backtracks: 1000, Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/atpg?"+params.Query().Encode(), strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("abandoned request reported success")
	}

	// The handler must notice within one fault boundary: abandoned counted,
	// slot released.
	deadline := time.Now().Add(20 * time.Second)
	for {
		stats := get[StatsResponse](t, ts, "/v1/stats")
		if stats.Abandoned == 1 && stats.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon still busy after abandonment: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Which phase the cancellation lands in depends on timing (under the
	// race detector the 100ms disconnect can hit the learn step rather
	// than the ATPG search); either way exactly one run must have been
	// cancelled mid-flight.
	st := srv.Store().Stats()
	if st.LearnCanceled+st.ATPGCanceled != 1 {
		t.Fatalf("store canceled counts = learn %d + atpg %d, want 1 total",
			st.LearnCanceled, st.ATPGCanceled)
	}

	// The freed slot serves the next request normally.
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Post(ts.URL+"/v1/learn", "text/plain", strings.NewReader(benchText(t, circuits.Figure2())))
	if err != nil {
		t.Fatalf("daemon wedged after abandonment: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abandonment request: status %d", resp.StatusCode)
	}
}

// waitStats polls /v1/stats until ok holds (or fails the test after 20s).
func waitStats(t *testing.T, ts *httptest.Server, ok func(StatsResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := get[StatsResponse](t, ts, "/v1/stats")
		if ok(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFullSheds is the admission-control gate: with the pool busy and
// no queue, the daemon must answer 429 immediately with a sane Retry-After
// instead of parking the request forever — and must serve normally again
// once the slot frees.
func TestQueueFullSheds(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: -1}) // negative: no waiting at all
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Occupy the only slot with a run that takes many seconds uncancelled.
	long := ATPGParams{Mode: "forbidden", Backtracks: 1000, Workers: 1}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/atpg?"+long.Query().Encode(), strings.NewReader(benchText(t, gen.MustBuild("s953"))))
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	go func() {
		defer close(hold)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitStats(t, ts, func(st StatsResponse) bool { return st.InFlight == 1 })

	resp, err := http.Post(ts.URL+"/v1/learn", "text/plain", strings.NewReader(benchText(t, circuits.Figure2())))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded daemon answered %d, want 429: %s", resp.StatusCode, data)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 300 {
		t.Fatalf("Retry-After = %q, want an integer in [1,300]", resp.Header.Get("Retry-After"))
	}
	if st := get[StatsResponse](t, ts, "/v1/stats"); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1 (stats %+v)", st.Shed, st)
	}

	// Freeing the slot restores normal service.
	cancel()
	<-hold
	waitStats(t, ts, func(st StatsResponse) bool { return st.InFlight == 0 })
	post[LearnResponse](t, ts, "/v1/learn", nil, benchText(t, circuits.Figure2()))
}

// TestLearnDeadlineExpires504 covers the deadline plumbing through the
// learning path: the server-wide RequestTimeout caps an extravagant
// per-request timeout=, the expired run answers 504, and the partial
// result is never cached — a repeat request is a miss, not a hit.
func TestLearnDeadlineExpires504(t *testing.T) {
	srv := New(Config{RequestTimeout: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, gen.MustBuild("s953"))

	params := LearnParams{Workers: 1, Timeout: 10 * time.Minute} // capped to 1ms by the server
	resp, err := http.Post(ts.URL+"/v1/learn?"+params.Query().Encode(), "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired learn answered %d, want 504: %s", resp.StatusCode, data)
	}
	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.TimedOut != 1 || st.InFlight != 0 {
		t.Fatalf("stats after 504: %+v", st)
	}
	if canceled := srv.Store().Stats().LearnCanceled; canceled != 1 {
		t.Fatalf("store learn canceled = %d, want 1", canceled)
	}
}

// TestATPGDeadlineExpiresNeverCached is the deadline gate on the ATPG
// path: with the snapshot prewarmed, a tight deadline expires mid-PODEM,
// answers 504, and leaves nothing in the test-set cache — the repeat
// request with the identical key runs from scratch.
func TestATPGDeadlineExpiresNeverCached(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, gen.MustBuild("s953"))
	params := ATPGParams{Mode: "forbidden", Backtracks: 1000, MaxFaults: 60, Workers: 1}

	// Prewarm the implication snapshot so the deadline lands in the ATPG
	// stage, not in learning.
	post[LearnResponse](t, ts, "/v1/learn", params.Learn.Query(), body)

	expired := params
	expired.Learn.Timeout = 30 * time.Millisecond
	resp, err := http.Post(ts.URL+"/v1/atpg?"+expired.Query().Encode(), "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired atpg answered %d, want 504: %s", resp.StatusCode, data)
	}
	waitStats(t, ts, func(st StatsResponse) bool { return st.TimedOut == 1 && st.InFlight == 0 })
	if canceled := srv.Store().Stats().ATPGCanceled; canceled != 1 {
		t.Fatalf("store atpg canceled = %d, want 1", canceled)
	}

	// The canceled run must not have polluted the cache: the same key
	// misses and a full run executes.
	full := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), body)
	if full.TestsCache != "miss" {
		t.Fatalf("repeat after 504 tests_cache = %q, want miss (the canceled run must not cache)", full.TestsCache)
	}
	if full.Total == 0 || full.Detected == 0 {
		t.Fatalf("full run after 504 returned nothing: %+v", full)
	}
}

// TestHealthzDraining: readiness must flip to 503/"draining" the moment
// shutdown begins, and back when cleared.
func TestHealthzDraining(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if h := get[HealthResponse](t, ts, "/healthz"); h.Status != "ok" || h.Degraded {
		t.Fatalf("fresh daemon health = %+v", h)
	}

	srv.SetDraining(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining health: status %d body %+v, want 503/draining", resp.StatusCode, h)
	}
	if st := get[StatsResponse](t, ts, "/v1/stats"); !st.Draining {
		t.Fatalf("stats not draining: %+v", st)
	}

	srv.SetDraining(false)
	if h := get[HealthResponse](t, ts, "/healthz"); h.Status != "ok" {
		t.Fatalf("health after drain cleared = %+v", h)
	}
}

// TestLearnParamsAffectResult: service requests with different learning
// options must resolve to different artifacts.
func TestLearnParamsAffectResult(t *testing.T) {
	ts := httptest.NewServer(New(Config{}))
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	full := post[LearnResponse](t, ts, "/v1/learn", LearnParams{}.Query(), body)
	single := post[LearnResponse](t, ts, "/v1/learn", LearnParams{SingleOnly: true}.Query(), body)
	if single.Cache != "miss" {
		t.Fatalf("distinct options shared an artifact: %+v", single)
	}
	if full.Fingerprint == single.Fingerprint {
		t.Fatal("distinct options share a fingerprint")
	}
	if full.Relations <= single.Relations {
		t.Fatalf("multiple-node learning added nothing: full=%d single=%d",
			full.Relations, single.Relations)
	}

	// The ablation parameters added for remote experiment parity ride the
	// same fingerprint machinery: each selects its own artifact.
	noEarly := post[LearnResponse](t, ts, "/v1/learn", LearnParams{NoEarlyStop: true}.Query(), body)
	if noEarly.Cache != "miss" || noEarly.Fingerprint == full.Fingerprint {
		t.Fatalf("no_early_stop shared the default artifact: %+v", noEarly)
	}
	frames := post[LearnResponse](t, ts, "/v1/learn", LearnParams{MaxFrames: 3}.Query(), body)
	if frames.Cache != "miss" || frames.Fingerprint == full.Fingerprint {
		t.Fatalf("max_frames shared the default artifact: %+v", frames)
	}
}
