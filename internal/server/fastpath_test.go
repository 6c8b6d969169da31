package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/gen"
)

// postReq is the header-aware sibling of post: it returns the raw response
// so callers can assert on non-200 answers.
func postReq(t *testing.T, ts *httptest.Server, path string, q url.Values, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	u := ts.URL + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(http.MethodPost, u, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postOK[T any](t *testing.T, ts *httptest.Server, path string, q url.Values, body string, hdr map[string]string) T {
	t.Helper()
	resp, data := postReq(t, ts, path, q, body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, data)
	}
	return out
}

// TestFingerprintFastPathLearn: a header-only request after a warm body
// request answers from the resident cache; an unknown fingerprint answers
// 428; a malformed one 400. The counters tell the three apart.
func TestFingerprintFastPathLearn(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	warm := post[LearnResponse](t, ts, "/v1/learn", nil, body)

	fast := postOK[LearnResponse](t, ts, "/v1/learn", nil, "",
		map[string]string{FingerprintHeader: warm.Fingerprint})
	if fast.Cache != "hit" || fast.Fingerprint != warm.Fingerprint ||
		fast.Relations != warm.Relations || fast.CombTies != warm.CombTies {
		t.Fatalf("fast path changed the answer:\nwarm %+v\nfast %+v", warm, fast)
	}

	// A fingerprint nobody learned: 428 tells the client to re-send the
	// body once.
	resp, data := postReq(t, ts, "/v1/learn", nil, "",
		map[string]string{FingerprintHeader: strings.Repeat("a", 64)})
	if resp.StatusCode != http.StatusPreconditionRequired {
		t.Fatalf("unknown fingerprint: status %d, want 428: %s", resp.StatusCode, data)
	}

	// Malformed fingerprints are a request error, not a miss.
	resp, data = postReq(t, ts, "/v1/learn", nil, "",
		map[string]string{FingerprintHeader: "../../etc/passwd"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fingerprint: status %d, want 400: %s", resp.StatusCode, data)
	}

	// A request carrying both the header and a body takes the body path
	// (the header is a promise the body is redundant, not a command).
	both := postOK[LearnResponse](t, ts, "/v1/learn", nil, body,
		map[string]string{FingerprintHeader: warm.Fingerprint})
	if both.Cache != "hit" {
		t.Fatalf("header+body request: %+v", both)
	}

	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.FastPath != 1 || st.FastMisses != 1 {
		t.Fatalf("fast path counters = %d/%d, want 1/1 (stats %+v)", st.FastPath, st.FastMisses, st)
	}
}

// TestFingerprintFastPathATPG: the header resolves the learning artifact
// for an ATPG request too — the generated tests are identical to the
// body-carrying request's.
func TestFingerprintFastPathATPG(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, gen.MustBuild("s510jcsrre"))
	params := ATPGParams{Mode: "forbidden", MaxFaults: 60, Workers: 1, IncludeTests: true}

	warm := post[ATPGResponse](t, ts, "/v1/atpg", params.Query(), body)
	fast := postOK[ATPGResponse](t, ts, "/v1/atpg", params.Query(), "",
		map[string]string{FingerprintHeader: warm.Fingerprint})
	if fast.Cache != "hit" || fast.TestsCache != "hit" ||
		fast.Detected != warm.Detected || !reflect.DeepEqual(fast.TestVectors, warm.TestVectors) {
		t.Fatalf("fast-path atpg differs:\nwarm %+v\nfast %+v", warm, fast)
	}
}

// TestTenantValidationAndStats: the X-Tenant header is validated, counted
// per tenant, and folded into /v1/stats.
func TestTenantValidationAndStats(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := benchText(t, circuits.Figure2())

	first := postOK[LearnResponse](t, ts, "/v1/learn", nil, body, map[string]string{TenantHeader: "team-a"})
	postOK[LearnResponse](t, ts, "/v1/learn", nil, body, map[string]string{TenantHeader: "team-a"})
	postOK[LearnResponse](t, ts, "/v1/learn", nil, body, nil) // -> "default"

	// A header-only fast-path hit bypasses the pool but is still the
	// tenant's request.
	postOK[LearnResponse](t, ts, "/v1/learn", nil, "", map[string]string{
		TenantHeader: "team-a", FingerprintHeader: first.Fingerprint,
	})

	for _, bad := range []string{"spaces in name", strings.Repeat("x", 65), "semi;colon"} {
		resp, data := postReq(t, ts, "/v1/learn", nil, body, map[string]string{TenantHeader: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tenant %q: status %d, want 400: %s", bad, resp.StatusCode, data)
		}
	}

	st := get[StatsResponse](t, ts, "/v1/stats")
	if st.Tenants["team-a"].Requests != 3 || st.Tenants["default"].Requests != 1 {
		t.Fatalf("tenant stats = %+v", st.Tenants)
	}
}
