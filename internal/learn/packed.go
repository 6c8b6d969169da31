package learn

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// This file is the learner's simulation route through sim.PackedEngine: up
// to 64 stem or target injections pack into the lanes of one scheduled
// run, so a single compiled-program sweep advances 64 learning machines at
// once. Packing composes with the worker sharding in parallel.go — each
// worker drains whole batches — and every lane reproduces the scalar
// engine bit for bit (sim.TestRunScheduledMatchesEngine), so the learned
// result is identical for every batch size and worker count and matches
// the digests pinned in testdata (TestPackedLearningEquivalence).

// compareSchedules orders injection schedules by their leading node, then
// lexicographically by (node, frame, value) — the clustering key for packed
// batches: schedules over the same nodes drive the same cones.
func compareSchedules(a, b []sim.Injection) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if d := cmp.Compare(a[i].Node, b[i].Node); d != 0 {
			return d
		}
		if d := cmp.Compare(a[i].Frame, b[i].Frame); d != 0 {
			return d
		}
		if d := cmp.Compare(a[i].Val, b[i].Val); d != 0 {
			return d
		}
	}
	return cmp.Compare(len(a), len(b))
}

// batchCount returns how many batches of lanes jobs cover n jobs.
func batchCount(n, lanes int) int {
	return (n + lanes - 1) / lanes
}

// batchSpan returns the job range [lo, hi) of batch b.
func batchSpan(b, n, lanes int) (lo, hi int) {
	lo = b * lanes
	return lo, min(lo+lanes, n)
}

// singleNodePacked is the packed simulation stage of the single-node
// sweep: the (stem, value) injections that miss the row cache pack into
// lane batches, and the batches shard over the packed worker pool. Each
// job writes only its private out slot, so the merge order in singleNode
// is untouched.
func (l *learner) singleNodePacked(stems []netlist.NodeID, opt sim.Options, out []stemRows) {
	type job struct {
		idx int // index in stems/out
		vi  int // 0 or 1
		val logic.V
	}
	var jobs []job
	for i, s := range stems {
		for vi, v := range []logic.V{logic.Zero, logic.One} {
			if cached, ok := l.rowCache[rowKey{stem: s, val: v}]; ok {
				out[i].rows[vi] = *cached
				continue
			}
			out[i].simmed[vi] = true
			jobs = append(jobs, job{idx: i, vi: vi, val: v})
		}
	}
	l.runParallel(batchCount(len(jobs), l.lanes), func(pe *sim.PackedEngine, b int) {
		lo, hi := batchSpan(b, len(jobs), l.lanes)
		runs := make([]sim.LaneRun, hi-lo)
		injs := make([]sim.Injection, hi-lo)
		for k := range runs {
			j := jobs[lo+k]
			injs[k] = sim.Injection{Frame: 0, Node: stems[j.idx], Val: j.val}
			runs[k] = sim.LaneRun{Inj: injs[k : k+1 : k+1]}
		}
		rs := pe.RunScheduled(runs, opt).Results()
		for k := range runs {
			j := jobs[lo+k]
			out[j.idx].rows[j.vi] = rs[k]
		}
	})
}

// multiNodePacked is the simulation stage of the multiple-node sweep:
// stage one derives every target's necessary-assignment schedule
// (engine-free, sharded over the worker pool), stage two packs the targets
// that need simulation into lane batches with per-lane T+1 frame caps.
// Conflicts and implied assignments land in target-private shards.
func (l *learner) multiNodePacked(targets []imply.Lit, records map[imply.Lit][]record, opt sim.Options, out []targetOut) {
	injs := make([][]sim.Injection, len(targets))
	l.runParallel(len(targets), func(_ *sim.PackedEngine, i int) {
		injs[i] = l.prepTarget(targets[i], records[targets[i]], &out[i])
	})
	simIdx := make([]int, 0, len(targets))
	for i := range targets {
		if injs[i] != nil {
			simIdx = append(simIdx, i)
		}
	}
	// Batch lanes with similar frame horizons together: every lane writes
	// only its own out slot, so the grouping is free to reorder — results
	// stay bit-identical — while batches stop running long-tail frames for
	// a single deep target and each batch captures only a few distinct
	// frame indices (one CapturedGroup each). The secondary key clusters
	// targets with lexicographically similar schedules: their cones
	// overlap, which shrinks the per-frame evaluation front — the packed
	// sweep evaluates the union cone of the batch.
	slices.SortStableFunc(simIdx, func(a, b int) int {
		if d := cmp.Compare(out[a].T, out[b].T); d != 0 {
			return d
		}
		return compareSchedules(injs[a], injs[b])
	})
	opt.NoFrameRecords = true // only the captured frame T is read back
	l.runParallel(batchCount(len(simIdx), l.lanes), func(pe *sim.PackedEngine, b int) {
		lo, hi := batchSpan(b, len(simIdx), l.lanes)
		runs := make([]sim.LaneRun, hi-lo)
		for k := range runs {
			i := simIdx[lo+k]
			runs[k] = sim.LaneRun{Inj: injs[i], MaxFrames: out[i].T + 1, CaptureLast: true}
		}
		res := pe.RunScheduled(runs, opt)
		for k := range runs {
			i := simIdx[lo+k]
			o := &out[i]
			o.simmed = true
			o.frames = res.NumFrames(k)
			if res.ConflictMask&(uint64(1)<<uint(k)) != 0 {
				o.clash = true
			}
		}
		// Harvest the frame-T assignments implied by each target, skipping
		// the target itself, tied gates and gate-gate pairs (which follow
		// from the gate-FF relations, Section 3). Each captured group is
		// walked once, bit-iterating the lanes per union entry. Group
		// entries are sorted by node and each target sits in exactly one
		// group, so every target's implied list comes out in node order.
		var seqLit [logic.W]bool
		for k := range runs {
			seqLit[k] = l.c.IsSeq(targets[simIdx[lo+k]].Node)
		}
		for _, g := range res.CapturedGroups() {
			for ei, n := range g.Nodes {
				if _, tied := l.res.Ties[n]; tied {
					continue
				}
				nIsSeq := l.c.IsSeq(n)
				pv := g.Vals[ei]
				for m := pv.Known() & g.Mask; m != 0; m &= m - 1 {
					k := bits.TrailingZeros64(m)
					i := simIdx[lo+k]
					if n == targets[i].Node || (!seqLit[k] && !nIsSeq) {
						continue
					}
					v := logic.Zero
					if pv.Ones&(uint64(1)<<uint(k)) != 0 {
						v = logic.One
					}
					out[i].implied = append(out[i].implied, imply.Lit{Node: n, Val: v})
				}
			}
		}
	})
}
