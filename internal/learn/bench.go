package learn

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// replaySink keeps the extraction traversal in ReplayPacked from being
// eliminated as dead code.
var replaySink atomic.Int64

// This file exports the learning sweep — the simulation stage of Learn,
// everything the learner runs through a sim engine — as a replayable
// workload, so benchmarks (BenchmarkPackedLearning, the CI speed smoke)
// can measure the scalar engine against the packed runner on exactly the
// schedules a real learning run issues, without the shared analysis work
// (record pairing, relation-database merges, equivalence identification)
// that both pay identically.

// sweepJob is one scheduled simulation of the workload.
type sweepJob struct {
	inj []sim.Injection
	cap int // per-job frame cap (multiple-node T+1); 0 uses the stage options
	t   int // frame index the learner reads back (multiple-node)
}

// sweepStage is one sweep of the workload: a single- or multiple-node pass
// with the simulation options and tie constants in force at the time.
type sweepStage struct {
	opt   sim.Options
	ties  map[netlist.NodeID]logic.V
	multi bool
	jobs  []sweepJob
}

// SweepWorkload is the exact simulation workload of one Learn call: every
// scheduled run the learner issued, stage by stage, with the tie and
// equivalence context each stage ran under. Capture it once with
// CaptureSweep, then replay it through either engine route.
type SweepWorkload struct {
	c      *netlist.Circuit
	stages []sweepStage
}

// CaptureSweep runs Learn(c, opt) and records the simulation workload it
// issues. The returned workload replays deterministically: job schedules,
// per-job frame caps, stage options and tie epochs are all snapshots.
func CaptureSweep(c *netlist.Circuit, opt Options) *SweepWorkload {
	w := &SweepWorkload{c: c}
	learnWith(c, opt, logic.W, w)
	return w
}

// traceSingle records a single-node stage: one frame-0 injection per
// simulated (cache-missed) stem row.
func (l *learner) traceSingle(stems []netlist.NodeID, opt sim.Options, out []stemRows) {
	st := sweepStage{opt: opt, ties: copyTieMap(l.curTies)}
	for i, s := range stems {
		for vi, v := range []logic.V{logic.Zero, logic.One} {
			if out[i].simmed[vi] {
				st.jobs = append(st.jobs, sweepJob{
					inj: []sim.Injection{{Frame: 0, Node: s, Val: v}},
				})
			}
		}
	}
	l.trace.stages = append(l.trace.stages, st)
}

// traceMulti records a multiple-node stage by re-deriving each simulated
// target's injection schedule (the learner's ties have not advanced yet —
// new ties apply only after the pass merge — so prepTarget reproduces the
// schedule exactly). Jobs are ordered by frame horizon, the order the
// packed driver batches them in.
func (l *learner) traceMulti(targets []imply.Lit, records map[imply.Lit][]record, opt sim.Options, out []targetOut) {
	st := sweepStage{opt: opt, ties: copyTieMap(l.curTies), multi: true}
	for i, lit := range targets {
		if !out[i].simmed {
			continue
		}
		var o targetOut
		inj := l.prepTarget(lit, records[lit], &o)
		st.jobs = append(st.jobs, sweepJob{inj: inj, cap: o.T + 1, t: o.T})
	}
	sort.SliceStable(st.jobs, func(a, b int) bool {
		if st.jobs[a].t != st.jobs[b].t {
			return st.jobs[a].t < st.jobs[b].t
		}
		return compareSchedules(st.jobs[a].inj, st.jobs[b].inj) < 0
	})
	l.trace.stages = append(l.trace.stages, st)
}

func copyTieMap(ties map[netlist.NodeID]logic.V) map[netlist.NodeID]logic.V {
	if len(ties) == 0 {
		return nil
	}
	out := make(map[netlist.NodeID]logic.V, len(ties))
	for n, v := range ties {
		out[n] = v
	}
	return out
}

// ReplayScalar executes the workload through the scalar engine's
// one-run-at-a-time replay: the speed smoke's denominator. It returns the
// total number of simulated frames; every replay route returns the same
// count, which the speed smoke uses as a cheap equivalence check.
func (w *SweepWorkload) ReplayScalar() int {
	eng := sim.NewEngine(w.c)
	total := 0
	for i := range w.stages {
		st := &w.stages[i]
		eng.SetTies(st.ties)
		for _, j := range st.jobs {
			opt := st.opt
			if j.cap > 0 {
				opt.MaxFrames = j.cap
			}
			res := eng.Run(j.inj, opt)
			total += len(res.Frames)
		}
	}
	return total
}

// ReplayPacked executes the workload through the packed scheduled runner,
// lanes injections per word (0 or >64 selects the full word width), with
// batches sharded over the given number of worker engines (<=1 runs on one
// engine — the single-thread kernel). Lane extraction is included: rows
// are materialized for single-node jobs and frame T for multiple-node
// jobs, exactly what the packed learner reads back.
func (w *SweepWorkload) ReplayPacked(lanes, workers int) int {
	if lanes <= 0 || lanes > logic.W {
		lanes = logic.W
	}
	pool := newEnginePool(w.c, workers)
	total := 0
	for i := range w.stages {
		st := &w.stages[i]
		pool.setTies(st.ties)
		counts := make([]int, batchCount(len(st.jobs), lanes))
		pool.run(len(counts), nil, func(pe *sim.PackedEngine, b int) {
			lo, hi := batchSpan(b, len(st.jobs), lanes)
			runs := make([]sim.LaneRun, hi-lo)
			for k := range runs {
				j := st.jobs[lo+k]
				runs[k] = sim.LaneRun{Inj: j.inj, MaxFrames: j.cap, CaptureLast: st.multi}
			}
			opt := st.opt
			opt.NoFrameRecords = st.multi
			res := pe.RunScheduled(runs, opt)
			n := 0
			if st.multi {
				for k := range runs {
					n += res.NumFrames(k)
				}
				// Walk the captured groups the way the learner consumes
				// them, so the replay includes the extraction traversal.
				sum := 0
				for _, g := range res.CapturedGroups() {
					for _, pv := range g.Vals {
						for m := pv.Known() & g.Mask; m != 0; m &= m - 1 {
							sum += bits.TrailingZeros64(m)
						}
					}
				}
				replaySink.Add(int64(sum))
			} else {
				for _, r := range res.Results() {
					n += len(r.Frames)
				}
			}
			counts[b] = n
		})
		for _, n := range counts {
			total += n
		}
	}
	return total
}
