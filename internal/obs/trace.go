package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The span tracer: one Trace per request, a tree of Spans under it. A
// Span is started and ended around a phase of work; child spans nest, and
// named integer attributes accumulate counts (targets, backtracks,
// batches). Timings are monotonic (time.Time carries the monotonic clock
// through Sub), so a span tree is a faithful wall-clock breakdown of
// where one request spent its time across parse → learn phases → packed
// fault-sim → PODEM.
//
// Every Span method is nil-receiver safe and returns a nil child from a
// nil parent, so the kernels can record unconditionally: with no trace
// attached the calls compile down to a nil check, keeping the packed hot
// loops allocation-free.

// Trace is the per-request span tree.
type Trace struct {
	id    string
	start time.Time
	root  *Span
}

// NewTrace starts a trace; rootName is the root span's name (typically
// the endpoint).
func NewTrace(id, rootName string) *Trace {
	t := &Trace{id: id, start: time.Now()}
	t.root = &Span{tr: t, name: rootName, start: t.start}
	return t
}

// ID returns the request ID the trace was created with.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Root returns the root span (nil from a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Span is one timed phase of a request.
type Span struct {
	tr    *Trace
	name  string
	start time.Time

	// durNS is the span's duration in nanoseconds: set once by End for
	// bracketed spans, accumulated by AddTime for aggregate spans that sum
	// many small slices of work (per-test fault-sim passes, per-fault
	// PODEM searches across parallel workers).
	durNS atomic.Int64
	ended atomic.Bool

	mu       sync.Mutex
	children []*Span
	attrs    []spanAttr
}

type spanAttr struct {
	key string
	val int64
}

// Start opens a child span. Safe on a nil receiver (returns nil).
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tr: s.tr, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End closes the span, recording the elapsed time since Start. Safe on a
// nil receiver; only the first call records.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.durNS.Add(int64(time.Since(s.start)))
}

// AddTime accumulates d into the span's duration — for aggregate spans
// that sum many disjoint slices of work and are never Ended. Safe on a
// nil receiver. Parallel workers may call it concurrently; the sum is
// their total compute time, which can exceed the wall clock.
func (s *Span) AddTime(d time.Duration) {
	if s == nil {
		return
	}
	s.durNS.Add(int64(d))
}

// Add accumulates delta into the named integer attribute. Safe on a nil
// receiver.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].key == key {
			s.attrs[i].val += delta
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, spanAttr{key: key, val: delta})
	s.mu.Unlock()
}

// duration returns the span's duration for rendering: the recorded value
// when ended or accumulated, otherwise time elapsed so far (a snapshot of
// a live span).
func (s *Span) duration() time.Duration {
	if d := s.durNS.Load(); d != 0 || s.ended.Load() {
		return time.Duration(d)
	}
	return time.Since(s.start)
}

// SpanTree is the JSON rendering of one span: offsets and durations in
// milliseconds relative to the trace start.
type SpanTree struct {
	Name       string           `json:"name"`
	StartMS    float64          `json:"start_ms"`
	DurationMS float64          `json:"duration_ms"`
	Attrs      map[string]int64 `json:"attrs,omitempty"`
	Children   []*SpanTree      `json:"children,omitempty"`
}

// TraceJSON is the wire form of a whole trace — what debug=trace echoes
// in compute responses and what the slow-request log dumps.
type TraceJSON struct {
	ID   string    `json:"id"`
	Root *SpanTree `json:"root"`
}

// JSON snapshots the trace (nil from a nil trace). Live spans render with
// their duration so far.
func (t *Trace) JSON() *TraceJSON {
	if t == nil {
		return nil
	}
	return &TraceJSON{ID: t.id, Root: t.root.tree(t.start)}
}

// tree renders the span and its subtree.
func (s *Span) tree(origin time.Time) *SpanTree {
	out := &SpanTree{
		Name:       s.name,
		StartMS:    float64(s.start.Sub(origin)) / float64(time.Millisecond),
		DurationMS: float64(s.duration()) / float64(time.Millisecond),
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.key] = a.val
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.tree(origin))
	}
	return out
}

// WriteText renders the span and its subtree as indented text, one span a
// line: name, duration and the attributes in key order. Children are
// indented two spaces under their parent.
func (s *SpanTree) WriteText(w io.Writer) error {
	return s.writeText(w, 0)
}

func (s *SpanTree) writeText(w io.Writer, depth int) error {
	if s == nil {
		return nil
	}
	line := fmt.Sprintf("%*s%-12s %9.1fms", 2*depth, "", s.Name, s.DurationMS)
	for _, k := range slices.Sorted(maps.Keys(s.Attrs)) {
		line += fmt.Sprintf(" %s=%d", k, s.Attrs[k])
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := c.writeText(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// Context plumbing: the server stores the request's trace in the request
// context; kernels retrieve it (nil-safely) wherever a context reaches.

type traceKeyType struct{}

var traceKey traceKeyType

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, or nil — every downstream Span
// call degrades to a no-op on the nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// NewRequestID returns a fresh 16-hex-digit request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// counter so a request is still identifiable.
		return "fallback-" + hex.EncodeToString([]byte{byte(fallbackID.Add(1))})
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Int64

// ValidRequestID reports whether a client-supplied X-Request-Id is safe
// to propagate into logs and headers: 1-64 characters from a conservative
// alphabet (letters, digits, dot, dash, underscore).
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
