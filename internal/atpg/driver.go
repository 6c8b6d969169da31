package atpg

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// RunOptions configures a full test-generation run over a fault list.
type RunOptions struct {
	ATPG Options

	// Faults is the target list (default: the collapsed universe).
	Faults []fault.Fault

	// MaxFaults truncates the target list (0 = all); used by quick
	// experiment modes.
	MaxFaults int

	// PreUntestable lists faults already proven untestable by an external
	// analysis (tie gates, FIRES); the driver counts them untestable
	// without searching — the paper's learning-enabled runs classify
	// tie-gate faults exactly this way.
	PreUntestable []fault.Fault

	// Parallelism is the number of concurrent PODEM workers and fault-
	// simulation shards (0 = one per core, 1 = fully serial). All workers
	// read one frozen imply.Snapshot; results are reconciled in canonical
	// fault order, so every count, test and backtrack total is
	// bit-identical to the serial run for any value (see parallel.go).
	Parallelism int

	// CompactTests enables static test-set compaction after generation: a
	// reverse-order fault-simulation pass over the emitted tests (newest
	// first) that keeps a test only if it detects a fault no kept test
	// already covers. Tests generated late tend to detect many of the
	// faults earlier tests were generated for, so replaying in reverse
	// drops the redundant early tests. Coverage is preserved exactly: the
	// test that first dropped a fault always re-detects it. The pass runs
	// on the packed fault simulator and is deterministic, so serial and
	// parallel runs still emit identical test sets.
	CompactTests bool

	// SeedTests is a test set from an earlier run (typically a cached run
	// on a previous revision of the circuit) replayed through the packed
	// fault simulator before any PODEM search. Each seed sequence is kept
	// iff it detects at least one remaining fault; PODEM then targets only
	// the residue — the incremental regression-ATPG path. Replay happens
	// serially before the driver starts, so results stay bit-identical for
	// any Parallelism.
	SeedTests [][][]logic.V

	// Cancel, when non-nil, aborts the run cooperatively: it is checked at
	// per-fault boundaries in the seed replay, the serial loop and the
	// parallel coordinator/workers. A cancelled run returns the partial
	// result with Canceled set; at most one in-flight PODEM search per
	// worker finishes after the channel closes.
	Cancel <-chan struct{}

	// Span, when non-nil, receives per-phase child spans: seed_replay and
	// compact as bracketed spans, fault_sim and podem as aggregates that
	// sum the sweep and search times (across parallel workers, so they may
	// exceed the wall clock). An observation knob like Parallelism:
	// excluded from store fingerprints, no effect on results.
	Span *obs.Span
}

// FaultStatus is the final per-fault classification of a run.
type FaultStatus uint8

// Per-fault classifications. StatusPending appears only in cancelled runs.
const (
	StatusPending    FaultStatus = iota // unresolved (cancelled before reached)
	StatusDetected                      // a test detects it
	StatusUntestable                    // proven (bounded) untestable
	StatusAborted                       // backtrack limit exceeded
)

// String returns "pending", "detected", "untestable" or "aborted".
func (s FaultStatus) String() string {
	switch s {
	case StatusDetected:
		return "detected"
	case StatusUntestable:
		return "untestable"
	case StatusAborted:
		return "aborted"
	default:
		return "pending"
	}
}

// RunResult summarizes a test-generation run — one cell group of the
// paper's Table 5.
type RunResult struct {
	Total      int // faults targeted
	Detected   int
	Untestable int
	Aborted    int

	Tests      [][][]logic.V // generated test sequences (PI vectors per frame)
	Backtracks int
	Duration   time.Duration

	// TestTargets aligns with Tests: the fault each sequence was
	// generated for. Every entry was re-confirmed by the independent
	// fault simulator before the test was emitted.
	TestTargets []fault.Fault

	// VerifyFailures counts generated tests the independent fault
	// simulator did not confirm; they are reclassified as aborted and
	// indicate a generator bug (always 0 in our test suite).
	VerifyFailures int

	// TestsCompacted counts tests removed by the reverse-order compaction
	// pass (0 unless RunOptions.CompactTests).
	TestsCompacted int

	// Faults is the effective target list (after MaxFaults truncation);
	// Status aligns with it and records each fault's final classification.
	Faults []fault.Fault
	Status []FaultStatus

	// SeedTestsKept counts seed sequences that detected at least one fault
	// and were therefore kept in Tests; SeedDetected counts the faults
	// they detected (both 0 unless RunOptions.SeedTests).
	SeedTestsKept int
	SeedDetected  int

	// PodemTargets counts the faults actually handed to the PODEM search —
	// the residue after pre-untestable classification, fault dropping and
	// seed-test replay. The incremental-reuse acceptance metric.
	PodemTargets int

	// Canceled reports a cooperative abort via RunOptions.Cancel; counts
	// and tests cover only the prefix processed before the abort.
	Canceled bool
}

// Coverage returns detected / total.
func (r RunResult) Coverage() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Total)
}

// TestCoverage returns detected / (total - untestable), the paper's "test
// coverage (fault coverage excluding untestable faults)".
func (r RunResult) TestCoverage() float64 {
	d := r.Total - r.Untestable
	if d <= 0 {
		return 0
	}
	return float64(r.Detected) / float64(d)
}

// TargetFaults resolves a run's target list: opt.Faults, or the collapsed
// universe of c when it is nil, truncated by opt.MaxFaults. Run, the
// content-addressed store and the Table 5 harness resolve the list here,
// so a fault-list position means the same fault everywhere.
func TargetFaults(c *netlist.Circuit, opt RunOptions) []fault.Fault {
	faults := opt.Faults
	if faults == nil {
		faults, _ = fault.Collapse(c)
	}
	if opt.MaxFaults > 0 && len(faults) > opt.MaxFaults {
		faults = faults[:opt.MaxFaults]
	}
	return faults
}

// Run generates tests for every fault with fault dropping: after each
// successful generation the test sequence is fault-simulated against the
// remaining faults and everything it detects is dropped. Every generated
// test is independently verified by the fault simulator before being
// counted.
//
// With Parallelism > 1 PODEM workers search speculatively ahead of the
// canonical merge and the fault-dropping simulation shards over the same
// number of workers; the merge keeps the outcome bit-identical to the
// serial run (see parallel.go).
//
// fault_sim and podem are aggregate spans: every detection sweep and every
// search adds its elapsed time, so with parallel workers their totals are
// compute time, not wall clock.
func Run(c *netlist.Circuit, opt RunOptions) RunResult {
	start := time.Now()
	faults := TargetFaults(c, opt)
	opt.ATPG.prepare(c)
	st := &runState{
		c:      c,
		opt:    opt,
		faults: faults,
		slot:   make([]int, len(faults)),
		psim:   fault.NewParallelSim(c, opt.Parallelism),
		res:    RunResult{Total: len(faults)},
	}
	slots := make(map[fault.Fault]int, len(faults))
	for i, f := range faults {
		s, ok := slots[f]
		if !ok {
			s = len(slots)
			slots[f] = s
		}
		st.slot[i] = s
	}
	st.dropped = make([]atomic.Bool, len(slots))
	st.status = make([]FaultStatus, len(slots))
	pre := make(map[fault.Fault]bool, len(opt.PreUntestable))
	for _, f := range opt.PreUntestable {
		pre[f] = true
	}
	for i, f := range faults {
		if pre[f] && !st.dropped[st.slot[i]].Load() {
			st.dropped[st.slot[i]].Store(true)
			st.status[st.slot[i]] = StatusUntestable
			st.res.Untestable++
		}
	}
	st.psim.SetSpan(opt.Span.Start("fault_sim"))
	st.podemSpan = opt.Span.Start("podem")

	st.replaySeeds()
	if workers := st.psim.Workers(); workers > 1 {
		st.runParallel(workers)
	} else {
		a := newArena(c, &st.opt.ATPG)
		st.merge(func(i int) (Result, bool) { return st.generate(a, i), true })
	}

	st.podemSpan.Add("targets", int64(st.res.PodemTargets))
	st.podemSpan.Add("backtracks", int64(st.res.Backtracks))
	if opt.CompactTests && !st.res.Canceled {
		sp := opt.Span.Start("compact")
		st.compactTests()
		sp.Add("removed", int64(st.res.TestsCompacted))
		sp.End()
	}
	st.res.Faults = faults
	st.res.Status = make([]FaultStatus, len(faults))
	for i := range faults {
		st.res.Status[i] = st.status[st.slot[i]]
	}
	st.res.Duration = time.Since(start)
	return st.res
}

// The ATPG pipeline. Both modes — the serial loop and the parallel driver —
// are one canonical loop over runState: positions in fault order, a
// cancellation poll at every boundary, dropped positions skipped, and
// every other position's Result folded in through process. The modes
// differ only in where position i's Result comes from: generated inline
// (serial) or awaited from a speculative worker (parallel.go). All
// mutation happens in canonical order through process, which is what
// makes the two modes bit-identical.
type runState struct {
	c      *netlist.Circuit
	opt    RunOptions
	faults []fault.Fault

	// slot maps a fault-list position to a canonical per-fault slot;
	// duplicate faults share a slot, preserving the drop-once semantics
	// of the original map-keyed implementation.
	slot    []int
	dropped []atomic.Bool // per slot; written only in canonical order
	status  []FaultStatus // per slot; written only in canonical order

	// psim is the detection backend, sharded over the run's workers (with
	// one worker it is the plain packed batch loop).
	psim *fault.ParallelSim

	// scratch for the drop pass.
	rem       []int
	remFaults []fault.Fault

	// detected lists the faults dropped by detection, in canonical drop
	// order — the coverage universe the compaction pass must preserve.
	detected []fault.Fault

	// podemSpan aggregates the time spent inside PODEM searches (nil when
	// unobserved).
	podemSpan *obs.Span

	res RunResult
}

// merge is the canonical loop. next supplies position i's Result and
// reports false when the run was cancelled while producing it.
func (st *runState) merge(next func(i int) (Result, bool)) {
	for i := range st.faults {
		if st.canceled() {
			st.res.Canceled = true
			return
		}
		if st.dropped[st.slot[i]].Load() {
			continue
		}
		g, ok := next(i)
		if !ok {
			st.res.Canceled = true
			return
		}
		st.process(i, g)
	}
}

// generate runs one PODEM search in the calling executor's arena, timing
// it into the podem aggregate span. The fill seed is a pure function of
// the fault's list position (positionOptions), so any executor reproduces
// exactly the test the serial loop would emit. Safe from parallel workers,
// each with its own arena: AddTime is atomic.
func (st *runState) generate(a *arena, i int) Result {
	opt := positionOptions(st.opt.ATPG, i)
	start := time.Now()
	g := a.generate(st.faults[i], &opt)
	st.podemSpan.AddTime(time.Since(start))
	return g
}

// positionOptions derives the generation options of fault-list position i.
func positionOptions(gopt Options, i int) Options {
	if gopt.FillSeed != 0 {
		gopt.FillSeed = gopt.FillSeed*31 + uint64(i) + 1
	}
	return gopt
}

// canceled polls the cooperative abort channel (never fires when nil).
func (st *runState) canceled() bool {
	select {
	case <-st.opt.Cancel:
		return true
	default:
		return false
	}
}

// remaining collects the undropped positions and their faults into the
// drop-pass scratch.
func (st *runState) remaining() {
	st.rem = st.rem[:0]
	st.remFaults = st.remFaults[:0]
	for p := range st.faults {
		if !st.dropped[st.slot[p]].Load() {
			st.rem = append(st.rem, p)
			st.remFaults = append(st.remFaults, st.faults[p])
		}
	}
}

// detect fault-simulates the test against the given faults. Detection of
// one fault is independent of every other, so the result is the same for
// any worker count and batch order.
func (st *runState) detect(test [][]logic.V, faults []fault.Fault) []fault.Detection {
	st.psim.LoadSequence(test, nil)
	return st.psim.Detect(faults)
}

// drop marks every remaining position the detections cover as detected;
// duplicate positions sharing a slot are counted once. It reports whether
// anything new was dropped.
func (st *runState) drop(dets []fault.Detection) bool {
	hit := false
	for k, p := range st.rem {
		if !dets[k].Detected || st.dropped[st.slot[p]].Load() {
			continue
		}
		hit = true
		st.dropped[st.slot[p]].Store(true)
		st.status[st.slot[p]] = StatusDetected
		st.res.Detected++
		st.detected = append(st.detected, st.faults[p])
	}
	return hit
}

// replaySeeds fault-simulates the seed test set against the remaining
// faults before any search, inside a seed_replay span: each sequence that
// detects something new is kept as an emitted test (its target recorded
// as the first fault it detects) and everything it detects is dropped, so
// PODEM targets only the residue. Runs before the canonical loop,
// preserving bit-identity across modes.
func (st *runState) replaySeeds() {
	if len(st.opt.SeedTests) == 0 {
		return
	}
	sp := st.opt.Span.Start("seed_replay")
	defer func() {
		sp.Add("seeds", int64(len(st.opt.SeedTests)))
		sp.Add("kept", int64(st.res.SeedTestsKept))
		sp.Add("detected", int64(st.res.SeedDetected))
		sp.End()
	}()
	for _, test := range st.opt.SeedTests {
		if st.canceled() {
			st.res.Canceled = true
			return
		}
		st.remaining()
		if len(st.rem) == 0 {
			return
		}
		first := len(st.detected)
		if st.drop(st.detect(test, st.remFaults)) {
			st.res.Tests = append(st.res.Tests, test)
			st.res.TestTargets = append(st.res.TestTargets, st.detected[first])
			st.res.SeedTestsKept++
			st.res.SeedDetected += len(st.detected) - first
		}
	}
}

// process folds the Result for fault-list position i into the run. It must
// be called in increasing position order with i undropped — the single
// accounting path of every mode.
func (st *runState) process(i int, g Result) {
	st.res.PodemTargets++
	st.res.Backtracks += g.Backtracks
	switch g.Outcome {
	case Untestable:
		st.res.Untestable++
		st.dropped[st.slot[i]].Store(true)
		st.status[st.slot[i]] = StatusUntestable
	case Aborted:
		st.res.Aborted++
		st.dropped[st.slot[i]].Store(true) // do not retarget
		st.status[st.slot[i]] = StatusAborted
	case Detected:
		st.remaining() // i is among the remaining positions
		dets := st.detect(g.Test, st.remFaults)
		// Independent verification of the generated test against its own
		// target fault.
		if self, _ := slices.BinarySearch(st.rem, i); !dets[self].Detected {
			st.res.VerifyFailures++
			st.res.Aborted++
			st.dropped[st.slot[i]].Store(true)
			st.status[st.slot[i]] = StatusAborted
			return
		}
		st.res.Tests = append(st.res.Tests, g.Test)
		st.res.TestTargets = append(st.res.TestTargets, st.faults[i])
		st.drop(dets)
	}
}

// compactTests is the reverse-order fault-simulation compaction pass: the
// emitted tests are replayed newest-first against the run's detected
// faults, each test keeping only what no later-kept test already covers; a
// test that detects nothing new is dropped. Every detected fault is
// re-detected by the test that originally dropped it (detection is a pure
// function of test and fault), so the sweep always ends with full coverage
// and the kept set is a deterministic function of the emitted tests.
func (st *runState) compactTests() {
	if len(st.res.Tests) <= 1 {
		return
	}
	remaining := append([]fault.Fault(nil), st.detected...)
	keep := make([]bool, len(st.res.Tests))
	for ti := len(st.res.Tests) - 1; ti >= 0 && len(remaining) > 0; ti-- {
		dets := st.detect(st.res.Tests[ti], remaining)
		next := remaining[:0]
		for i, d := range dets {
			if d.Detected {
				keep[ti] = true
			} else {
				next = append(next, remaining[i])
			}
		}
		remaining = next
	}
	tests := st.res.Tests[:0]
	targets := st.res.TestTargets[:0]
	for ti, k := range keep {
		if k {
			tests = append(tests, st.res.Tests[ti])
			targets = append(targets, st.res.TestTargets[ti])
		} else {
			st.res.TestsCompacted++
		}
	}
	st.res.Tests = tests
	st.res.TestTargets = targets
}
