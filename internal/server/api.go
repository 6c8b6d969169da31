package server

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/atpg"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/store"
)

// The wire protocol: every compute endpoint takes the circuit as an
// extended .bench netlist in the POST body and its options as query
// parameters, and answers JSON. The parameter structs below are shared by
// the HTTP handlers (decoding) and seqlearn.Client (encoding), so the two
// sides cannot drift.

// LearnParams selects the learning configuration of a request. The zero
// value is the paper's setup. Workers is the per-request parallelism of
// the learning run itself, with the repo-wide convention (0 = one per
// core, 1 = serial; results are bit-identical either way); the daemon
// separately bounds how many requests compute concurrently.
type LearnParams struct {
	MaxFrames   int
	SingleOnly  bool
	SkipComb    bool
	NoEarlyStop bool
	Workers     int

	// Timeout is the per-request deadline (queue wait + run), encoded as
	// the timeout= parameter in Go duration syntax ("30s", "2m"). The
	// daemon caps it at its own -request-timeout; an expired request
	// answers 504 and its partial run is never cached. Zero asks for the
	// daemon's default. An execution knob: it never affects cache keys.
	Timeout time.Duration

	// Trace (wire form debug=trace) asks the response to echo the
	// request's span tree — where the time went across parse, learning
	// phases, fault simulation and PODEM. Observation only: never affects
	// cache keys or results.
	Trace bool
}

// maxLearnFrames caps max_frames on /v1/learn and /v1/atpg, bounding how
// long one learning injection may run (max_window's cap lives with
// atpg.WindowLadder).
const maxLearnFrames = 1000

// Options maps the request to learn.Options.
func (p LearnParams) Options() learn.Options {
	return learn.Options{
		MaxFrames:        p.MaxFrames,
		SingleNodeOnly:   p.SingleOnly,
		SkipComb:         p.SkipComb,
		DisableEarlyStop: p.NoEarlyStop,
		Parallelism:      p.Workers,
	}
}

// Query renders the parameters for a request URL.
func (p LearnParams) Query() url.Values {
	q := url.Values{}
	setInt(q, "max_frames", p.MaxFrames)
	setBool(q, "single_only", p.SingleOnly)
	setBool(q, "skip_comb", p.SkipComb)
	setBool(q, "no_early_stop", p.NoEarlyStop)
	setInt(q, "workers", p.Workers)
	setDuration(q, "timeout", p.Timeout)
	setTrace(q, p.Trace)
	return q
}

// learnQueryKeys lists every parameter /v1/learn accepts ("name" is the
// display-name parameter; "timeout" and "debug" are shared by all compute
// endpoints).
var learnQueryKeys = []string{"name", "max_frames", "single_only", "skip_comb", "no_early_stop", "workers", "timeout", "debug"}

func learnParamsFromQuery(q url.Values) (LearnParams, error) {
	if err := checkKnown(q, learnQueryKeys); err != nil {
		return LearnParams{}, err
	}
	return decodeLearnParams(q)
}

// decodeLearnParams reads the learning parameters without the unknown-key
// check, so endpoints layering their own parameters on top (ATPG) can run
// one check against their combined key set.
func decodeLearnParams(q url.Values) (LearnParams, error) {
	var p LearnParams
	var err error
	if p.MaxFrames, err = getSize(q, "max_frames", maxLearnFrames); err != nil {
		return p, err
	}
	if p.SingleOnly, err = getBool(q, "single_only"); err != nil {
		return p, err
	}
	if p.SkipComb, err = getBool(q, "skip_comb"); err != nil {
		return p, err
	}
	if p.NoEarlyStop, err = getBool(q, "no_early_stop"); err != nil {
		return p, err
	}
	if p.Workers, err = getInt(q, "workers"); err != nil {
		return p, err
	}
	if p.Timeout, err = getDuration(q, "timeout"); err != nil {
		return p, err
	}
	p.Trace, err = getTrace(q)
	return p, err
}

// ATPGParams configures a test-generation request. Learning options ride
// along because the ATPG resolves its implication snapshot through the
// same cache.
type ATPGParams struct {
	Learn LearnParams

	Mode         string // "nolearn", "forbidden" (default) or "known"
	Backtracks   int    // backtrack limit per window (default 30)
	MaxFaults    int    // truncate the fault list (0 = all)
	MaxWindow    int    // largest time-frame window (default 8)
	Workers      int    // PODEM/fault-sim shards (0 = one per core, 1 = serial)
	Compact      bool   // reverse-order test-set compaction
	IncludeTests bool   // return the test vectors themselves

	// Reuse selects incremental test-set reuse when the exact cache key
	// misses: "" (off), "auto" (seed from the most recent cached test set
	// with a matching primary-input signature) or an explicit
	// tests_fingerprint from an earlier response. The cached tests are
	// replayed through the packed fault simulator and PODEM targets only
	// the residue.
	Reuse string
}

// atpgMode parses the wire mode name.
func (p ATPGParams) atpgMode() (atpg.Mode, error) {
	switch p.Mode {
	case "nolearn":
		return atpg.ModeNoLearning, nil
	case "", "forbidden":
		return atpg.ModeForbidden, nil
	case "known":
		return atpg.ModeKnown, nil
	}
	return 0, fmt.Errorf("unknown mode %q", p.Mode)
}

// fillSeed seeds the random fill of unassigned PI values in served tests;
// cmd/seqatpg uses the same value.
const fillSeed = 0x7e57

// RunOptions maps the request onto a cached artifact: the one
// place the service's ATPG configuration is assembled, shared by the
// daemon and by tests asserting served results match direct in-process
// runs. ModeNoLearning uses combinational ties only, mirroring the
// paper's baseline; the learned modes use all ties.
func (p ATPGParams) RunOptions(art *store.Artifact) (atpg.RunOptions, error) {
	mode, err := p.atpgMode()
	if err != nil {
		return atpg.RunOptions{}, err
	}
	windows, err := atpg.WindowLadder(p.MaxWindow)
	if err != nil {
		return atpg.RunOptions{}, err
	}
	ties := art.Ties()
	if mode == atpg.ModeNoLearning {
		ties = art.CombTies
	}
	return atpg.RunOptions{
		MaxFaults:    p.MaxFaults,
		Parallelism:  p.Workers,
		CompactTests: p.Compact,
		ATPG: atpg.Options{
			BacktrackLimit: p.Backtracks,
			Windows:        windows,
			Mode:           mode,
			DB:             art.DB,
			Ties:           ties,
			FillSeed:       fillSeed,
		},
	}, nil
}

// Query renders the parameters for a request URL.
func (p ATPGParams) Query() url.Values {
	q := p.Learn.Query()
	if p.Mode != "" {
		q.Set("mode", p.Mode)
	}
	setInt(q, "backtracks", p.Backtracks)
	setInt(q, "max_faults", p.MaxFaults)
	setInt(q, "max_window", p.MaxWindow)
	setInt(q, "atpg_workers", p.Workers)
	setBool(q, "compact", p.Compact)
	setBool(q, "include_tests", p.IncludeTests)
	if p.Reuse != "" {
		q.Set("reuse", p.Reuse)
	}
	return q
}

// atpgQueryKeys is everything /v1/atpg accepts: the learning parameters
// (the snapshot is resolved through the same cache) plus its own.
var atpgQueryKeys = append([]string{
	"mode", "backtracks", "max_faults", "max_window", "atpg_workers",
	"compact", "include_tests", "reuse",
}, learnQueryKeys...)

func atpgParamsFromQuery(q url.Values) (ATPGParams, error) {
	var p ATPGParams
	var err error
	if err = checkKnown(q, atpgQueryKeys); err != nil {
		return p, err
	}
	if p.Learn, err = decodeLearnParams(q); err != nil {
		return p, err
	}
	p.Mode = q.Get("mode")
	if _, err = p.atpgMode(); err != nil {
		return p, err
	}
	if p.Backtracks, err = getInt(q, "backtracks"); err != nil {
		return p, err
	}
	if p.MaxFaults, err = getInt(q, "max_faults"); err != nil {
		return p, err
	}
	if p.MaxWindow, err = getInt(q, "max_window"); err != nil {
		return p, err
	}
	if _, err = atpg.WindowLadder(p.MaxWindow); err != nil {
		return p, err
	}
	if p.Workers, err = getInt(q, "atpg_workers"); err != nil {
		return p, err
	}
	if p.Compact, err = getBool(q, "compact"); err != nil {
		return p, err
	}
	if p.IncludeTests, err = getBool(q, "include_tests"); err != nil {
		return p, err
	}
	p.Reuse = q.Get("reuse")
	return p, nil
}

// LearnResponse is the JSON answer of POST /v1/learn.
type LearnResponse struct {
	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`
	// Cache reports how the artifact was obtained: "hit" (memory),
	// "coalesced" (waited on a concurrent identical request), "disk" or
	// "miss" (a learning run executed).
	Cache        string  `json:"cache"`
	Relations    int     `json:"relations"`
	FFFF         int     `json:"ffff"`
	GateFF       int     `json:"gate_ff"`
	CrossFrame   int     `json:"cross_frame"`
	CombTies     int     `json:"comb_ties"`
	SeqTies      int     `json:"seq_ties"`
	EquivClasses int     `json:"equiv_classes"`
	ElapsedMS    float64 `json:"elapsed_ms"`

	// Trace is the request's span tree, present with debug=trace.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// ATPGResponse is the JSON answer of POST /v1/atpg.
type ATPGResponse struct {
	Circuit     string `json:"circuit"`
	Fingerprint string `json:"fingerprint"`
	Cache       string `json:"cache"`

	// TestsFingerprint is the content address of the test-set artifact
	// (pass it back as reuse= to seed an incremental run on a changed
	// netlist); TestsCache reports how it was obtained ("hit",
	// "coalesced", "disk" or "miss" — a run executed).
	TestsFingerprint string `json:"tests_fingerprint"`
	TestsCache       string `json:"tests_cache"`

	Total      int `json:"total"`
	Detected   int `json:"detected"`
	Untestable int `json:"untestable"`
	Aborted    int `json:"aborted"`
	Backtracks int `json:"backtracks"`

	// PodemFaults counts faults the PODEM search actually targeted;
	// ReusedTests counts seed tests kept by the incremental replay and
	// SeedDetected the faults they covered. The reuse fields describe this
	// request's run only — they are absent on cache hits, even when the
	// cached test set was originally produced by a seeded run.
	// ReuseFingerprint/ReuseDiff identify the seed artifact and the first
	// structural difference against its circuit when a seeded run
	// executed.
	PodemFaults      int    `json:"podem_faults"`
	ReusedTests      int    `json:"reused_tests,omitempty"`
	SeedDetected     int    `json:"seed_detected,omitempty"`
	ReuseFingerprint string `json:"reuse_fingerprint,omitempty"`
	ReuseDiff        string `json:"reuse_diff,omitempty"`

	Coverage     float64 `json:"coverage"`
	TestCoverage float64 `json:"test_coverage"`

	Tests          int `json:"tests"`
	TestsCompacted int `json:"tests_compacted"`
	VerifyFailures int `json:"verify_failures"`

	// TestVectors is present with include_tests=1: one entry per emitted
	// test, each a frame-by-frame string of PI values ("01X..." in
	// declaration order) as produced by FormatTest.
	TestVectors [][]string `json:"test_vectors,omitempty"`

	ElapsedMS float64 `json:"elapsed_ms"`

	// Trace is the request's span tree, present with debug=trace.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// StatsResponse is the JSON answer of GET /v1/stats.
type StatsResponse struct {
	UptimeMS float64     `json:"uptime_ms"`
	Cache    store.Stats `json:"cache"`
	// InFlight counts compute requests currently holding a worker-pool
	// slot; Queued counts requests waiting for one; Abandoned counts
	// requests whose client disconnected mid-run (the run stopped at the
	// next fault boundary and the slot was released).
	InFlight  int64 `json:"in_flight"`
	Queued    int64 `json:"queued"`
	Abandoned int64 `json:"abandoned"`
	// Shed counts requests rejected with 429 because the admission queue
	// was full; TimedOut counts requests that expired their deadline (504)
	// while queued or mid-run. Degraded mirrors the cache's memory-only
	// state after a disk I/O failure, and Draining is set once shutdown
	// has begun (new work is still accepted until the listener closes, but
	// /healthz already answers 503 so load balancers stop routing here).
	Shed     int64 `json:"shed"`
	TimedOut int64 `json:"timed_out"`
	// FastPath counts header-only requests answered from the resident
	// cache without a netlist body (X-Circuit-Fingerprint); FastMisses
	// counts the 428 answers telling the client to re-send the body.
	FastPath   int64            `json:"fast_path"`
	FastMisses int64            `json:"fast_misses"`
	Degraded   bool             `json:"degraded"`
	Draining   bool             `json:"draining"`
	Served     map[string]int64 `json:"served"`
}

// HealthResponse is the JSON answer of GET /healthz. Status is "ok" or
// "draining"; a draining daemon answers 503 so readiness probes fail fast
// while in-flight work finishes. Degraded is informational — a daemon with
// a broken disk cache still serves correct results from memory.
type HealthResponse struct {
	Status   string  `json:"status"`
	UptimeMS float64 `json:"uptime_ms"`
	Degraded bool    `json:"degraded"`

	// Revision is the VCS revision the binary was built from ("unknown"
	// outside a stamped build), for correlating fleet members with deploys.
	Revision string `json:"revision,omitempty"`
}

// ErrorResponse is the JSON body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FormatTest renders one generated test sequence as frame strings, one
// character per primary input in declaration order.
func FormatTest(test [][]logic.V) []string {
	out := make([]string, len(test))
	for t, vec := range test {
		b := make([]byte, len(vec))
		for i, v := range vec {
			b[i] = v.String()[0]
		}
		out[t] = string(b)
	}
	return out
}

// checkKnown rejects query parameters outside the endpoint's key set, so a
// misspelled option fails the request instead of silently running with the
// default (a remote ablation that quietly ignored no_early_stop would
// report the wrong experiment).
func checkKnown(q url.Values, known []string) error {
	for key := range q {
		if !slices.Contains(known, key) {
			return fmt.Errorf("unknown query parameter %q", key)
		}
	}
	return nil
}

// Query helpers: integers and bools with "absent = zero value" semantics,
// rejecting malformed input instead of defaulting it away.

func setInt(q url.Values, key string, v int) {
	if v != 0 {
		q.Set(key, strconv.Itoa(v))
	}
}

func setBool(q url.Values, key string, v bool) {
	if v {
		q.Set(key, "1")
	}
}

func getInt(q url.Values, key string) (int, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, s)
	}
	return v, nil
}

// getSize reads a size parameter, rejecting negative values and values
// above limit: a size sizes allocations and loops inside a pool slot, so an
// unbounded one would let a single request pin the daemon.
func getSize(q url.Values, key string, limit int) (int, error) {
	v, err := getInt(q, key)
	if err == nil && (v < 0 || v > limit) {
		err = fmt.Errorf("bad %s %d: want 0..%d", key, v, limit)
	}
	return v, err
}

func getBool(q url.Values, key string) (bool, error) {
	switch q.Get(key) {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	}
	return false, fmt.Errorf("bad %s %q", key, q.Get(key))
}

func setDuration(q url.Values, key string, v time.Duration) {
	if v > 0 {
		q.Set(key, v.String())
	}
}

func setTrace(q url.Values, v bool) {
	if v {
		q.Set("debug", "trace")
	}
}

// getTrace reads the debug= parameter; "trace" is the only defined mode.
func getTrace(q url.Values) (bool, error) {
	switch q.Get("debug") {
	case "":
		return false, nil
	case "trace":
		return true, nil
	}
	return false, fmt.Errorf("bad debug %q (supported: \"trace\")", q.Get("debug"))
}

func getDuration(q url.Values, key string) (time.Duration, error) {
	s := q.Get(key)
	if s == "" {
		return 0, nil
	}
	v, err := time.ParseDuration(s)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad %s %q", key, s)
	}
	return v, nil
}
