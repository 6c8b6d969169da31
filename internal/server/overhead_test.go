package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestInstrumentationOverheadSmoke is the CI guard that instrumentation
// stays out of the hot path: with BENCH_SMOKE=1 it measures the warm
// cache-hit requests on s5378 — a header-only learn hit and a header-only
// ATPG test-set hit — against an identical in-process server with the
// observability middleware bypassed, and fails if the instrumented server
// is more than 5% slower plus 200µs of slack. Instrumented and bare runs
// alternate three times and the best of each is compared, so the process's
// heap and the machine's load drift out of the comparison.
func TestInstrumentationOverheadSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the instrumentation overhead gate")
	}
	const (
		gate  = 0.05
		slack = 200 * time.Microsecond // a scheduler hiccup on a sub-ms path
	)
	c := gen.MustBuild("s5378")
	body := benchText(t, c)
	learnQ := url.Values{"name": {c.Name}}
	atpgQ := ATPGParams{Mode: "forbidden", Backtracks: 30, MaxFaults: 200}.Query()
	atpgQ.Set("name", c.Name)

	// warm starts a server and primes both caches with body requests,
	// returning the artifact fingerprint the warm requests send instead.
	warm := func(cfg Config) (*httptest.Server, string) {
		ts := httptest.NewServer(New(cfg))
		t.Cleanup(ts.Close)
		lr := post[LearnResponse](t, ts, "/v1/learn", learnQ, body)
		if ar := post[ATPGResponse](t, ts, "/v1/atpg", atpgQ, body); ar.TestsCache != "miss" {
			t.Fatalf("priming atpg: tests cache %q, want miss", ar.TestsCache)
		}
		return ts, lr.Fingerprint
	}
	ins, insFP := warm(Config{})
	bare, bareFP := warm(Config{noInstrumentation: true})

	// hit sends one header-only request and checks it was a cache hit.
	hit := func(ts *httptest.Server, fp, path string, q url.Values) error {
		req, err := http.NewRequest(http.MethodPost, ts.URL+path+"?"+q.Encode(), nil)
		if err != nil {
			return err
		}
		req.Header.Set(FingerprintHeader, fp)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, data)
		}
		var out struct {
			Cache      string `json:"cache"`
			TestsCache string `json:"tests_cache"`
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return err
		}
		if out.Cache != "hit" || (path == "/v1/atpg" && out.TestsCache != "hit") {
			return fmt.Errorf("POST %s: cache %q tests cache %q, want hits", path, out.Cache, out.TestsCache)
		}
		return nil
	}
	// measure is the best ns/op of one server's warm path.
	measure := func(ts *httptest.Server, fp, path string, q url.Values, best *time.Duration) {
		var failed error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && failed == nil; i++ {
				failed = hit(ts, fp, path, q)
			}
		})
		if failed != nil {
			t.Fatal(failed)
		}
		if d := time.Duration(r.NsPerOp()); *best == 0 || d < *best {
			*best = d
		}
	}
	for _, p := range []struct {
		name, path string
		q          url.Values
	}{
		{"warm-learn", "/v1/learn", learnQ},
		{"warm-atpg", "/v1/atpg", atpgQ},
	} {
		var insBest, bareBest time.Duration
		for i := 0; i < 3; i++ {
			measure(ins, insFP, p.path, p.q, &insBest)
			measure(bare, bareFP, p.path, p.q, &bareBest)
		}
		limit := bareBest + time.Duration(gate*float64(bareBest)) + slack
		t.Logf("%s: instrumented %v vs bare %v (limit %v)", p.name, insBest, bareBest, limit)
		if insBest > limit {
			t.Errorf("%s instrumentation overhead too high: %v > %v", p.name, insBest, limit)
		}
	}
}
