package obs

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	c.Add(-5) // negative deltas are ignored
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter moved on negative Add: %d", got)
	}
}

// TestGaugeConcurrent sets and reads one gauge from several goroutines:
// every read must return a value some writer set.
func TestGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "depth")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				g.Set(int64(w + 1))
				if v := g.Value(); v < 1 || v > workers {
					t.Errorf("gauge read %d, which no writer set", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got < 1 || got > workers {
		t.Fatalf("gauge = %d, which no writer set", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	const workers, per = 8, 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(0.05) // lands in the 0.1 bucket
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	want := 0.05 * workers * per
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "h", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`test_h_bucket{le="1"} 2`,
		`test_h_bucket{le="2"} 3`,
		`test_h_bucket{le="5"} 4`,
		`test_h_bucket{le="+Inf"} 5`,
		`test_h_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionLint(t *testing.T) {
	r := NewRegistry()
	r.Counter("seqlearnd_requests_total", "Requests served.",
		Label{"endpoint", "learn"}, Label{"code", "200"}).Add(3)
	r.Gauge("seqlearnd_in_flight", "In-flight requests.").Set(2)
	r.GaugeFunc("seqlearnd_store_degraded", "1 while degraded.", func() float64 { return 0 })
	h := r.Histogram("seqlearnd_request_duration_seconds", "E2E latency.", nil,
		Label{"endpoint", "learn"})
	h.Observe(0.003)
	h.Observe(4.2)
	// Tricky label values: every escapable character plus a brace and comma.
	r.Counter("test_escapes_total", `Help with \ backslash`+"\nand newline",
		Label{"path", `a\b"c` + "\n" + `},{`}).Inc()
	RegisterBuildInfo(r)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition([]byte(b.String())); err != nil {
		t.Fatalf("lint: %v\n%s", err, b.String())
	}
}

func TestLintCatchesBadPayloads(t *testing.T) {
	cases := []struct{ name, payload string }{
		{"no TYPE", "some_metric 1\n"},
		{"TYPE without HELP", "# TYPE m counter\nm 1\n"},
		{"non-cumulative buckets", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\n" +
			"h_sum 1\nh_count 3\n"},
		{"count mismatch", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 3` + "\n" + "h_sum 1\nh_count 4\n"},
		{"missing +Inf", "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 3` + "\n" + "h_sum 1\nh_count 3\n"},
		{"unterminated labels", "# HELP m m\n# TYPE m counter\n" + `m{a="b" 1` + "\n"},
		{"bad escape", "# HELP m m\n# TYPE m counter\n" + `m{a="\q"} 1` + "\n"},
		{"bad value", "# HELP m m\n# TYPE m gauge\nm hello\n"},
	}
	for _, tc := range cases {
		if err := LintExposition([]byte(tc.payload)); err == nil {
			t.Errorf("%s: lint accepted bad payload:\n%s", tc.name, tc.payload)
		}
	}
}

func TestRegistryIdempotentAndConflict(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m_total", "m", Label{"k", "v"})
	b := r.Counter("m_total", "m", Label{"k", "v"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("m_total", "m")
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "m").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "m_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestSpanTree(t *testing.T) {
	tr := NewTrace("abc123", "learn")
	root := tr.Root()
	parse := root.Start("parse")
	parse.End()
	learn := root.Start("learn")
	single := learn.Start("single_node")
	single.Add("stems", 10)
	single.Add("stems", 5)
	single.End()
	learn.End()
	agg := root.Start("fault_sim")
	agg.AddTime(3 * time.Millisecond)
	agg.AddTime(2 * time.Millisecond)
	root.End()

	js := tr.JSON()
	if js.ID != "abc123" || js.Root.Name != "learn" {
		t.Fatalf("trace header wrong: %+v", js)
	}
	if len(js.Root.Children) != 3 {
		t.Fatalf("children = %d, want 3", len(js.Root.Children))
	}
	sn := js.Root.Children[1].Children[0]
	if sn.Name != "single_node" || sn.Attrs["stems"] != 15 {
		t.Fatalf("single_node span wrong: %+v", sn)
	}
	aggJS := js.Root.Children[2]
	if got := aggJS.DurationMS; got < 4.9 || got > 5.1 {
		t.Fatalf("aggregate duration = %gms, want ~5ms", got)
	}
	if _, err := json.Marshal(js); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

// TestSpanTreeWriteText pins the text rendering: indentation by depth,
// durations to 0.1 ms and attributes in key order.
func TestSpanTreeWriteText(t *testing.T) {
	tree := &SpanTree{Name: "op", DurationMS: 12.34, Children: []*SpanTree{
		{Name: "learn", DurationMS: 2, Children: []*SpanTree{{Name: "single_node", DurationMS: 1.25}}},
		{Name: "podem", DurationMS: 9.96, Attrs: map[string]int64{"targets": 7, "backtracks": 30}},
	}}
	var sb strings.Builder
	if err := tree.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"op                12.3ms\n" +
		"  learn              2.0ms\n" +
		"    single_node        1.2ms\n" +
		"  podem             10.0ms backtracks=30 targets=7\n"
	if sb.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestNilSpanNoOps(t *testing.T) {
	var s *Span
	child := s.Start("x")
	if child != nil {
		t.Fatal("nil span returned non-nil child")
	}
	child.End()
	child.AddTime(time.Second)
	child.Add("k", 1)
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.JSON() != nil {
		t.Fatal("nil trace accessors not nil-safe")
	}
}

func TestTraceContext(t *testing.T) {
	if TraceFrom(context.Background()) != nil {
		t.Fatal("empty context yielded a trace")
	}
	tr := NewTrace("id", "root")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
}

func TestSpanConcurrent(t *testing.T) {
	tr := NewTrace("id", "root")
	root := tr.Root()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c := root.Start("child")
				c.Add("n", 1)
				c.AddTime(time.Microsecond)
				c.End()
			}
		}()
	}
	wg.Wait()
	js := tr.JSON()
	if len(js.Root.Children) != 8*500 {
		t.Fatalf("children = %d, want %d", len(js.Root.Children), 8*500)
	}
}

func TestRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatal("two request IDs collided")
	}
	if !ValidRequestID(a) || !ValidRequestID(b) {
		t.Fatalf("generated IDs invalid: %q %q", a, b)
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "semi;colon", "ünïcode"} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
	for _, good := range []string{"a", "trace-123", "A.b_c-9"} {
		if !ValidRequestID(good) {
			t.Errorf("ValidRequestID(%q) = false", good)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	if Revision() == "" {
		t.Fatal("Revision() empty")
	}
	if v := VersionString("seqlearnd"); !strings.HasPrefix(v, "seqlearnd revision ") {
		t.Fatalf("VersionString = %q", v)
	}
}
