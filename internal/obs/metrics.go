// Package obs is the observability substrate of the service layer: a
// dependency-free metrics core (atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition) and a lightweight span
// tracer (request IDs and per-request span trees with monotonic timings).
//
// Everything in this package is designed to be threaded through the
// compute kernels without taxing them: counters and histograms are single
// atomic operations, and every Span method is safe — and a cheap no-op —
// on a nil receiver, so the packed hot loops pay nothing when no trace is
// attached.
//
// The exposition side (Registry.WritePrometheus / Registry.ServeHTTP)
// implements the Prometheus text format version 0.0.4 directly, so the
// daemon is scrapable without importing a client library the container
// does not carry.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant label attached to a metric series.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing metric. The zero value is ready
// to use; Registry.Counter returns registered instances.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are a programming error and are
// ignored — a counter never goes down).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that holds the last value set.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket.
// Observe is two atomic adds plus a small linear scan over the bounds —
// cheap enough for per-request latency recording.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, +Inf excluded
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the running sum, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is the default upper-bound ladder for request latencies,
// in seconds: half a millisecond to a minute, roughly 2-2.5x per step.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels []Label
	key    string // canonical label rendering, the dedup/sort key

	counter   *Counter
	gauge     *Gauge
	gaugeFunc func() float64
	hist      *Histogram
}

// family groups the series sharing one metric name.
type family struct {
	name string
	help string
	kind metricKind

	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// format. All methods are safe for concurrent use; getter methods
// (Counter, Gauge, Histogram) return the existing series when the same
// name and label set is requested twice, so packages can idempotently
// claim their metrics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// familyFor returns (creating if needed) the family, panicking on a kind
// conflict — registering the same name as two different types is a
// programming error that would render invalid exposition.
func (r *Registry) familyFor(name, help string, kind metricKind) *family {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.fams[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.kind, kind))
	}
	return f
}

// seriesFor returns (creating if needed) the series for the label set.
func (f *family) seriesFor(labels []Label) (*series, bool) {
	key := labelKey(labels)
	if s, ok := f.byKey[key]; ok {
		return s, false
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s, true
}

// Counter returns the registered counter for (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.familyFor(name, help, kindCounter).seriesFor(labels)
	if fresh {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.familyFor(name, help, kindGauge).seriesFor(labels)
	if fresh {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read by calling f at
// exposition time — for values owned by another structure (cache sizes,
// boolean states) that would otherwise need mirrored bookkeeping.
func (r *Registry) GaugeFunc(name, help string, f func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.familyFor(name, help, kindGauge).seriesFor(labels)
	s.gaugeFunc = f
}

// Histogram returns the registered histogram for (name, labels) with the
// given bucket upper bounds (sorted ascending, +Inf implicit), creating
// it on first use. Later calls for the same series ignore buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.familyFor(name, help, kindHistogram).seriesFor(labels)
	if fresh {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		s.hist = &Histogram{
			bounds: bounds,
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.hist
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, one HELP and TYPE line each,
// series sorted by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.fams[name]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		// Snapshot the series list under the lock; values are atomics and
		// read lock-free.
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })

		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			writeSeries(&b, f, s)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, f *family, s *series) {
	switch f.kind {
	case kindCounter:
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.key, s.counter.Value())
	case kindGauge:
		if s.gaugeFunc != nil {
			fmt.Fprintf(b, "%s%s %s\n", f.name, s.key, formatFloat(s.gaugeFunc()))
			return
		}
		fmt.Fprintf(b, "%s%s %d\n", f.name, s.key, s.gauge.Value())
	case kindHistogram:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				withLabel(s.labels, Label{"le", formatFloat(bound)}), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
			withLabel(s.labels, Label{"le", "+Inf"}), cum)
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.key, formatFloat(h.Sum()))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.key, cum)
	}
}

// ServeHTTP implements the /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// A write error means the scraper went away; nothing left to report.
	_ = r.WritePrometheus(w)
}

// labelKey renders a label set canonically — sorted by key, escaped —
// producing both the dedup key and the exposition form ("" or
// `{k="v",...}`).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withLabel renders labels plus one extra (the histogram "le" label).
func withLabel(labels []Label, extra Label) string {
	return labelKey(append(append([]Label(nil), labels...), extra))
}

// escapeLabel escapes a label value per the text format: backslash,
// double-quote and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP line: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
