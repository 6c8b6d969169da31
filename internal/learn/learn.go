// Package learn implements the paper's core contribution: the fast
// sequential learning technique that extracts implications, invalid states
// and tied gates from a gate-level sequential circuit by forward
// three-valued simulation across time frames.
//
// The technique (Section 3 of the paper):
//
//  1. Single-node learning. For every fanout stem, inject 0 and then 1 and
//     simulate forward up to MaxFrames frames, stopping early when the
//     implied state repeats. Entries of the two rows at the same time frame
//     combine through the contrapositive law into relations; a node that
//     receives the same value at the same frame in both rows is a tied
//     gate.
//
//  2. Multiple-node learning. Every recorded entry "stem=v@0 ⟹ node=w@d"
//     contributes, by contrapositive, the necessary assignment stem=¬v at
//     frame T-d to the learning target node=¬w at frame T. All necessary
//     assignments are injected together with the target and simulated
//     forward; everything that settles is implied by the target, and a
//     conflict proves the target impossible — the node is a tied gate.
//
// Learned tied gates participate as constants in the multiple-node phase,
// and verified gate equivalences (package equiv) propagate values the
// three-valued evaluation alone cannot push, exactly as the paper's Figure 1
// walk-through requires.
//
// Real-circuit handling (Section 3.3): learning runs separately per clock
// class, never propagates values across multi-port latches or elements with
// both unconstrained set and reset, and propagates across elements with
// only set (only reset) just the value 1 (0).
package learn

import (
	"sort"
	"time"

	"repro/internal/equiv"
	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Options configures a learning run. The zero value is the paper's
// configuration: 50 frames, single-node learning, gate equivalences with
// the learned ties folded in, and one multiple-node pass that uses both.
type Options struct {
	// MaxFrames caps forward simulation (default sim.DefaultMaxFrames).
	MaxFrames int

	// SingleNodeOnly skips the multiple-node phase.
	SingleNodeOnly bool

	// DisableTies keeps learned tied gates from being used as constants in
	// equivalence identification and the multiple-node phase (ablation).
	DisableTies bool

	// DisableEarlyStop turns off the repeated-state stopping rule
	// (ablation; the paper's rule is on by default).
	DisableEarlyStop bool

	// KeepRows retains the single-node simulation rows (Table 1 output).
	KeepRows bool

	// SkipComb skips the classical combinational learning pass that marks
	// which relations are derivable within one frame (Table 3 excludes
	// them). Skipping makes the comb/sequential split operational
	// (frame-0-derived only) — useful on very large circuits where the
	// 2-injections-per-gate combinational sweep dominates runtime.
	SkipComb bool

	// Parallelism is the number of simulation workers sharding the
	// single-node, multiple-node and classical combinational sweeps (0
	// selects runtime.GOMAXPROCS(0); 1 runs fully serial; oversized
	// requests are clamped to a few workers per core). Each worker owns a
	// cloned packed engine (or a private single-frame implication engine
	// for the combinational sweep) and records into a private shard;
	// shards are merged in canonical order, so the learned relations,
	// ties, equivalences, statistics and serialized database are
	// bit-identical for every worker count. Each worker drains whole
	// 64-lane batches, for 64 × Parallelism learning machines in flight.
	Parallelism int

	// Cancel, when non-nil, aborts the run cooperatively: it is checked
	// between phases and at injection boundaries of the single- and
	// multiple-node sweeps, and a fired channel makes Learn return
	// promptly with Result.Canceled set. A canceled result is partial and
	// must be discarded, never cached — it is an execution knob like
	// Parallelism, excluded from store fingerprints.
	Cancel <-chan struct{}

	// Span, when non-nil, receives one child span per learning phase
	// (single_node, equiv, multi_node, comb_learn) with stem/target/sim
	// counts as attributes, plus a freeze span for the final DB.Freeze.
	// An observation knob like Parallelism: excluded from store
	// fingerprints, no effect on results.
	Span *obs.Span
}

// maxPairsPerStem bounds contrapositive pairing work per stem; overflow is
// counted in Stats.PairsSkipped.
const maxPairsPerStem = 1 << 20

func (o *Options) defaults() {
	if o.MaxFrames <= 0 {
		o.MaxFrames = sim.DefaultMaxFrames
	}
	o.Parallelism = sim.ClampWorkers(o.Parallelism)
}

// Normalized returns the options with unset fields folded to their
// effective defaults: the form consumers that key caches on options
// (internal/store) hash, so an explicit default and the zero value
// resolve to the same artifact. Note
// that Parallelism normalizes to a machine-dependent worker count; cache
// keys must ignore it (results are bit-identical for every value).
func (o Options) Normalized() Options {
	o.defaults()
	return o
}

// Tie is a learned tied gate.
type Tie struct {
	Node netlist.NodeID
	Val  logic.V
	// Frame is the earliest frame at which the tie was established; 0
	// means combinationally tied, >0 sequentially tied (c-cycle
	// redundant).
	Frame int
}

// StemRow is one row of the paper's Table 1: the frames implied by
// injecting Val on Stem.
type StemRow struct {
	Class        int32
	Stem         netlist.NodeID
	Val          logic.V
	Frames       []sim.Frame
	StoppedEarly bool
}

// Stats instruments a learning run.
type Stats struct {
	Stems        int
	Targets      int
	Sims         int
	Frames       int
	Conflicts    int
	PairsSkipped int
	Duration     time.Duration
}

// Result is the outcome of Learn.
type Result struct {
	// DB is the frozen, immutable snapshot of every learned relation; it
	// is safe for any number of concurrent readers (ATPG workers, FIRES,
	// report generation) without locks.
	DB   *imply.Snapshot
	Ties map[netlist.NodeID]logic.V

	// CombTies and SeqTies are the tied gates sorted by name.
	CombTies []Tie
	SeqTies  []Tie

	EquivClasses []equiv.Class

	// Rows holds single-node simulation rows when Options.KeepRows.
	Rows []StemRow

	// Canceled reports a cooperative abort via Options.Cancel: the result
	// is partial and must not be cached or compared against a full run.
	Canceled bool

	Stats Stats
}

// TieOf returns the tie on node n, if any.
func (r *Result) TieOf(n netlist.NodeID) (logic.V, bool) {
	v, ok := r.Ties[n]
	return v, ok
}

// record is one entry "Stem=Stem.Val at frame 0 implies the keyed literal
// at frame Offset", collected during single-node learning.
type record struct {
	Stem   imply.Lit
	Offset int
}

// learner carries the state of one Learn invocation.
type learner struct {
	c   *netlist.Circuit
	opt Options
	db  *imply.DB // mutable builder, frozen into res.DB by finish
	res *Result

	// pool holds one 64-lane scheduled simulator per worker: the single-
	// and multiple-node sweeps batch their injections through these, lanes
	// machines per run. Tie constants are kept in sync via setTies.
	pool  enginePool
	lanes int

	// records per class: observed literal -> producing stem assignments.
	records []map[imply.Lit][]record
	// tieFrame tracks the earliest frame per learned tie.
	tieFrame map[netlist.NodeID]int

	// rowCache holds purely combinational stem rows, which are identical
	// under every class gating; multi-domain circuits would otherwise
	// re-simulate every stem once per clock class. A row is cacheable only
	// if its frame-0 values touch no sequential D-pin source (dFeeder).
	rowCache map[rowKey]*sim.Result
	dFeeder  []bool

	partners map[netlist.NodeID][]netlist.NodeID

	// trace, when non-nil, collects the simulation workload of every sweep
	// (CaptureSweep); curTies mirrors the constants last installed by
	// setTies so each traced stage can snapshot its tie epoch.
	trace   *SweepWorkload
	curTies map[netlist.NodeID]logic.V
}

// canceled polls the run's cooperative-cancel channel (nil never fires).
func (l *learner) canceled() bool {
	select {
	case <-l.opt.Cancel:
		return true
	default:
		return false
	}
}

type rowKey struct {
	stem netlist.NodeID
	val  logic.V
}

// Learn runs the full sequential learning flow on c.
func Learn(c *netlist.Circuit, opt Options) *Result {
	return learnWith(c, opt, logic.W, nil)
}

// learnWith is Learn with the lane count per packed batch (1..logic.W;
// the lane-boundary tests set fewer) and an optional sweep-workload
// recorder attached.
func learnWith(c *netlist.Circuit, opt Options, lanes int, trace *SweepWorkload) *Result {
	opt.defaults()
	start := time.Now()

	l := &learner{
		trace:    trace,
		c:        c,
		opt:      opt,
		lanes:    lanes,
		db:       imply.NewDB(c),
		res:      &Result{Ties: map[netlist.NodeID]logic.V{}},
		tieFrame: map[netlist.NodeID]int{},
		rowCache: map[rowKey]*sim.Result{},
	}
	l.pool = newEnginePool(c, opt.Parallelism)
	l.dFeeder = make([]bool, c.NumNodes())
	for _, id := range c.Seqs {
		l.dFeeder[c.Nodes[id].Seq.D.Node] = true
	}

	classes := classList(c)
	l.records = make([]map[imply.Lit][]record, len(classes))

	// Phase 1: single-node learning per clock class.
	sp := opt.Span.Start("single_node")
	for i, cls := range classes {
		l.records[i] = map[imply.Lit][]record{}
		l.singleNode(cls, l.records[i])
	}
	sp.Add("stems", int64(l.res.Stats.Stems))
	sp.Add("sims", int64(l.res.Stats.Sims))
	sp.End()
	if l.canceled() {
		return l.abort(start)
	}

	// Phase 2: gate equivalences with ties folded in.
	sp = opt.Span.Start("equiv")
	eq := equiv.Find(c, l.tiesForSim())
	l.res.EquivClasses = eq.Classes
	l.partners = eq.Partners
	sp.Add("classes", int64(len(eq.Classes)))
	sp.End()
	if l.canceled() {
		return l.abort(start)
	}

	// Phase 3: multiple-node learning per clock class. Tie constants are
	// installed on every worker engine once per pass (read-through, closed
	// under constant propagation).
	if !opt.SingleNodeOnly {
		sp = opt.Span.Start("multi_node")
		l.setTies(l.tiesForSim())
		for i, cls := range classes {
			l.multiNode(cls, l.records[i])
		}
		l.setTies(nil)
		sp.Add("targets", int64(l.res.Stats.Targets))
		sp.Add("conflicts", int64(l.res.Stats.Conflicts))
		sp.End()
	}
	if l.canceled() {
		return l.abort(start)
	}

	// Phase 4: classical combinational learning, which (a) feeds the
	// ATPG's always-on combinational baseline and (b) marks the relations
	// that Table 3 must exclude. Only combinational ties may be folded in
	// here — a sequential tie is knowledge combinational learning cannot
	// have, and using it would misclassify sequential relations.
	if !opt.SkipComb {
		sp = opt.Span.Start("comb_learn")
		combTies := map[netlist.NodeID]logic.V{}
		for n, v := range l.res.Ties {
			if l.tieFrame[n] == 0 {
				combTies[n] = v
			}
		}
		for _, tie := range CombinationalParallel(c, l.db, combTies, l.opt.Parallelism) {
			l.addTie(tie.Node, tie.Val, 0)
		}
		sp.End()
	}

	l.finish()
	l.res.Stats.Duration = time.Since(start)
	return l.res
}

// abort finalizes a canceled run: the partial database is frozen so the
// result is structurally valid, but Canceled marks it discard-only.
func (l *learner) abort(start time.Time) *Result {
	l.res.Canceled = true
	l.finish()
	l.res.Stats.Duration = time.Since(start)
	return l.res
}

// classList enumerates the learning classes; a circuit without sequential
// elements still gets one (gating-free) pass.
func classList(c *netlist.Circuit) []int32 {
	n := len(c.Classes())
	if n == 0 {
		return []int32{-1}
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// tiesForSim returns the tie constants to fold into simulation, honoring
// the ablation flag.
func (l *learner) tiesForSim() map[netlist.NodeID]logic.V {
	if l.opt.DisableTies {
		return nil
	}
	return l.res.Ties
}

// stemsFor lists the injection stems for a class pass: every combinational
// stem plus the sequential stems of the class.
func (l *learner) stemsFor(cls int32) []netlist.NodeID {
	var out []netlist.NodeID
	for _, s := range l.c.Stems() {
		if l.c.IsSeq(s) {
			if cls >= 0 && l.c.Nodes[s].Seq.Class != cls {
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// stemRows is the per-stem shard of the single-node sweep: the 0-row and
// 1-row of the stem, with simmed false when a row was served from the row
// cache.
type stemRows struct {
	rows   [2]sim.Result
	simmed [2]bool
}

// singleNode runs the single-node learning phase for one class: the stem
// injections are packed into 64-lane batches sharded over the worker pool,
// then recorded by a serial merge in stem order, so the outcome is
// identical to a serial sweep of one injection at a time.
func (l *learner) singleNode(cls int32, records map[imply.Lit][]record) {
	modes := sim.PropModes(l.c, nil, cls)
	stems := l.stemsFor(cls)
	l.res.Stats.Stems += len(stems)

	opt := sim.Options{
		MaxFrames:   l.opt.MaxFrames,
		PropModes:   modes,
		NoEarlyStop: l.opt.DisableEarlyStop,
	}

	// Parallel sweep. The row cache is only ever hit across class passes
	// (each stem appears once per pass), so it is frozen here and the
	// workers read it lock-free; new entries are inserted by the merge.
	out := make([]stemRows, len(stems))
	l.singleNodePacked(stems, opt, out)
	if l.trace != nil {
		l.traceSingle(stems, opt, out)
	}

	// Deterministic merge.
	multiClass := len(l.c.Classes()) > 1
	for i, s := range stems {
		for _, v := range []logic.V{logic.Zero, logic.One} {
			res := out[i].rows[v-logic.Zero]
			if out[i].simmed[v-logic.Zero] {
				l.res.Stats.Sims++
				l.res.Stats.Frames += len(res.Frames)
				// A row whose frame-0 values reach no D-pin source can
				// never capture anything under any gating: identical in
				// every class pass.
				if multiClass && len(res.Frames) == 1 && res.StoppedEarly && !res.Conflict {
					cacheable := true
					for _, a := range res.Frames[0] {
						if l.dFeeder[a.Node] {
							cacheable = false
							break
						}
					}
					if cacheable {
						r := res
						l.rowCache[rowKey{stem: s, val: v}] = &r
					}
				}
			}
			if l.opt.KeepRows {
				l.res.Rows = append(l.res.Rows, StemRow{
					Class: cls, Stem: s, Val: v,
					Frames: res.Frames, StoppedEarly: res.StoppedEarly,
				})
			}

			// Collect records and direct relations.
			stemLit := imply.Lit{Node: s, Val: v}
			for t, frame := range res.Frames {
				for _, a := range frame {
					if a.Node == s && t == 0 {
						continue // the injection itself
					}
					lit := imply.Lit{Node: a.Node, Val: a.Val}
					records[lit] = append(records[lit], record{Stem: stemLit, Offset: t})
					// Direct relation stem=v@0 ⟹ node=val@t.
					if l.c.IsSeq(s) || l.c.IsSeq(a.Node) {
						l.db.Add(stemLit, lit, t, t == 0, t)
					}
				}
			}
		}
		l.pairRows(s, out[i].rows[0].Frames, out[i].rows[1].Frames)
		out[i] = stemRows{} // release the frames as the merge advances
	}
}

// pairRows combines the 0-row and 1-row of a stem through the
// contrapositive law: A@t in row0 and B@t in row1 yield ¬A ⟹ B (same
// frame); identical entries in both rows prove a tie.
func (l *learner) pairRows(s netlist.NodeID, row0, row1 []sim.Frame) {
	budget := maxPairsPerStem
	frames := len(row0)
	if len(row1) < frames {
		frames = len(row1)
	}
	for t := 0; t < frames; t++ {
		f0, f1 := row0[t], row1[t]
		for _, a0 := range f0 {
			if a0.Node == s && t == 0 {
				continue
			}
			for _, a1 := range f1 {
				if a1.Node == s && t == 0 {
					continue
				}
				if budget--; budget < 0 {
					l.res.Stats.PairsSkipped++
					continue
				}
				if a0.Node == a1.Node {
					if a0.Val == a1.Val {
						// Both stem values produce the same value at the
						// same frame: tied gate.
						l.addTie(a0.Node, a0.Val, t)
					}
					continue
				}
				// Relations between gate pairs are not extracted (they
				// follow from the gate-FF relations, Section 3).
				if !l.c.IsSeq(a0.Node) && !l.c.IsSeq(a1.Node) {
					continue
				}
				la := imply.Lit{Node: a0.Node, Val: a0.Val}
				lb := imply.Lit{Node: a1.Node, Val: a1.Val}
				l.db.Add(la.Not(), lb, 0, t == 0, t)
			}
		}
	}
}

// addTie records a learned tie.
func (l *learner) addTie(n netlist.NodeID, v logic.V, frame int) {
	if old, ok := l.res.Ties[n]; ok {
		if old != v {
			// Cannot happen for sound derivations; keep the first.
			return
		}
		if f, ok := l.tieFrame[n]; !ok || frame < f {
			l.tieFrame[n] = frame
		}
		return
	}
	l.res.Ties[n] = v
	l.tieFrame[n] = frame
}

// targetOut is the per-target shard of the multiple-node sweep.
type targetOut struct {
	skip    bool // target node already tied: nothing to do
	direct  bool // contradictory necessary assignments, no simulation
	simmed  bool
	clash   bool // simulation conflict: target impossible
	frames  int
	T       int
	implied []imply.Lit // frame-T assignments implied by the target
}

// prepTarget derives the necessary-assignment injection schedule for one
// learning target from its single-node records (paper Section 3.2),
// deduplicated, with the target assumption itself injected at frame T. It
// returns nil when no simulation is needed: the target node is already
// tied (o.skip) or two necessary assignments contradict (o.direct).
func (l *learner) prepTarget(lit imply.Lit, recs []record, o *targetOut) []sim.Injection {
	if _, tied := l.res.Ties[lit.Node]; tied {
		o.skip = true
		return nil
	}
	target := lit.Not()
	T := 0
	for _, r := range recs {
		if r.Offset > T {
			T = r.Offset
		}
	}
	o.T = T
	inj := make([]sim.Injection, 0, len(recs)+1)
	seen := map[sim.Injection]bool{}
	for _, r := range recs {
		in := sim.Injection{Frame: T - r.Offset, Node: r.Stem.Node, Val: r.Stem.Val.Not()}
		if seen[in] {
			continue
		}
		// A contradictory necessary assignment proves the target
		// impossible without simulating.
		if seen[sim.Injection{Frame: in.Frame, Node: in.Node, Val: in.Val.Not()}] {
			o.direct = true
			return nil
		}
		seen[in] = true
		inj = append(inj, in)
	}
	return append(inj, sim.Injection{Frame: T, Node: target.Node, Val: target.Val})
}

// multiNode runs the multiple-node learning phase for one class. Targets
// are independent within a pass (ties proven here are applied only
// afterwards), so they pack into 64-lane batches sharded over the worker
// pool; the serial merge in sorted target order reproduces a serial pass
// of one target at a time exactly.
func (l *learner) multiNode(cls int32, records map[imply.Lit][]record) {
	ties := l.tiesForSim()
	modes := sim.PropModes(l.c, ties, cls)

	// Deterministic target order.
	targets := make([]imply.Lit, 0, len(records))
	for lit := range records {
		targets = append(targets, lit)
	}
	sort.Slice(targets, func(i, j int) bool {
		if targets[i].Node != targets[j].Node {
			return targets[i].Node < targets[j].Node
		}
		return targets[i].Val < targets[j].Val
	})

	opt := sim.Options{
		MaxFrames:   l.opt.MaxFrames, // per-target T+1 caps override this
		Equiv:       l.partners,
		PropModes:   modes,
		NoEarlyStop: true,
	}

	// Parallel sweep. Workers read l.res.Ties and records but never write
	// shared state; every observation lands in the target's private shard.
	out := make([]targetOut, len(targets))
	l.multiNodePacked(targets, records, opt, out)
	if l.trace != nil {
		l.traceMulti(targets, records, opt, out)
	}

	// Deterministic merge. Ties proven during this pass are applied only
	// afterwards, keeping the pass order-independent.
	newTies := map[netlist.NodeID]Tie{}
	for i, lit := range targets {
		o := &out[i]
		if o.skip {
			continue
		}
		l.res.Stats.Targets++
		if o.simmed {
			l.res.Stats.Sims++
			l.res.Stats.Frames += o.frames
		}
		if o.direct || o.clash {
			// The target assignment is impossible: lit.Node is tied to
			// the observed value (paper Section 3.2).
			l.res.Stats.Conflicts++
			if _, dup := newTies[lit.Node]; !dup {
				newTies[lit.Node] = Tie{Node: lit.Node, Val: lit.Val, Frame: o.T}
			}
			continue
		}
		target := lit.Not()
		for _, b := range o.implied {
			l.db.Add(target, b, 0, o.T == 0, o.T)
		}
		out[i] = targetOut{}
	}

	for _, tie := range newTies {
		l.addTie(tie.Node, tie.Val, tie.Frame)
	}
}

// finish sorts the tie lists and freezes the relation database.
func (l *learner) finish() {
	sp := l.opt.Span.Start("freeze")
	l.res.DB = l.db.Freeze()
	sp.End()
	for n, v := range l.res.Ties {
		tie := Tie{Node: n, Val: v, Frame: l.tieFrame[n]}
		if tie.Frame == 0 {
			l.res.CombTies = append(l.res.CombTies, tie)
		} else {
			l.res.SeqTies = append(l.res.SeqTies, tie)
		}
	}
	byName := func(ts []Tie) func(i, j int) bool {
		return func(i, j int) bool {
			return l.c.NameOf(ts[i].Node) < l.c.NameOf(ts[j].Node)
		}
	}
	sort.Slice(l.res.CombTies, byName(l.res.CombTies))
	sort.Slice(l.res.SeqTies, byName(l.res.SeqTies))
}
