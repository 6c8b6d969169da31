// Package fires identifies untestable stuck-at faults without search, in
// two ways compared by the paper's Table 4:
//
//   - TieUntestable: faults untestable because of learned tied gates — the
//     by-product of sequential learning the paper reports ("our method
//     identifies untestable faults as a by-product of learning tie gates").
//
//   - Fires: a FIRE/FIRES-style stem-conflict analysis (references [6],[13]
//     of the paper): for each fanout stem s, the faults undetectable while
//     s=0 require s=1 and vice versa; a fault requiring both values of one
//     stem is untestable.
//
// Both read single-frame values from imply.Propagator, the implication
// engine combinational learning uses too: the ties are settled once into
// its base frame, each stem value is injected on top of it, and forward
// evaluation, unique backward justification (including XOR/XNOR parity
// completion) and, with Options.UseRelations, the learned same-frame
// relations run to a fixpoint.
//
// Soundness. Two kinds of claims are combined:
//
//   - Excitation claims — "the good value of node n is forced to its stuck
//     value" — are facts about the fault-free machine and are always sound.
//
//   - Observability claims — "no fault effect from n can reach an
//     observation point" — use side-input values of the fault-free
//     machine, which the faulty machine may change wherever the fault
//     itself can reach. Every observability-based candidate is therefore
//     re-checked with a taint filter: only blockers outside the structural
//     fanout cone of the fault site are trusted. (The unfiltered rule is
//     the classic formulation; the filter is what makes it sound, and the
//     test suite verifies every flagged fault against the fault
//     simulator.)
//
// Values learned sequentially (ties with validity frames, invalid-state
// relations) may be used as per-frame constants: under the
// unknown-initial-state detection convention, any detection scenario can be
// shifted later in time past every validity frame (three-valued
// monotonicity keeps known values known), so a fault undetectable in the
// steady frame is undetectable outright.
//
// Observation points are primary outputs plus sequential element inputs
// (data/set/reset/ports), which makes the analyses conservative: they only
// under-approximate the untestable set.
package fires

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Options tunes the analyses.
type Options struct {
	// UseRelations folds learned same-frame relations into the FIRES
	// stem analysis (the sequential extension).
	UseRelations bool
}

// Result carries the identified untestable faults (collapsed
// representatives, deterministically ordered).
type Result struct {
	Untestable []fault.Fault
}

// Count returns the number of untestable representative faults.
func (r *Result) Count() int { return len(r.Untestable) }

// TieUntestable identifies untestable faults from learned tied gates.
func TieUntestable(c *netlist.Circuit, lr *learn.Result) *Result {
	an := newAnalyzer(c, lr.Ties, nil)
	if an.prop.BaseConflict() {
		return &Result{}
	}
	v := an.view(an.prop.Values())
	marked := make([]uint8, c.NumNodes())
	for id := range c.Nodes {
		n := netlist.NodeID(id)
		// Excitation claims are sound as-is.
		if fv := v.arr[n]; fv != logic.X {
			marked[n] |= stuckBit(fv)
		}
		// Observability candidates are re-checked with the taint filter.
		if !v.obs[n] && !an.observable(v, reach(c, n))[n] {
			marked[n] = bothStuck
		}
	}
	return collapseMarked(c, marked)
}

// Fires runs the stem-conflict analysis.
func Fires(c *netlist.Circuit, lr *learn.Result, opt Options) *Result {
	var db *imply.Snapshot
	var ties map[netlist.NodeID]logic.V
	if lr != nil {
		ties = lr.Ties
		if opt.UseRelations {
			db = lr.DB
		}
	}
	an := newAnalyzer(c, ties, db)

	// cones memoizes the fault sites' structural fanout cones for this
	// call: the same node is a candidate under many stems.
	cones := map[netlist.NodeID][]bool{}
	marked := make([]uint8, c.NumNodes())
	for _, s := range c.Stems() {
		v0 := an.stemView(s, logic.Zero)
		if v0 == nil {
			continue
		}
		v1 := an.stemView(s, logic.One)
		if v1 == nil {
			continue
		}
		for id := range c.Nodes {
			n := netlist.NodeID(id)
			// Candidate faults flagged by the shared (unfiltered) analysis
			// on both sides and not yet marked.
			var cand uint8
			for _, stuck := range []logic.V{logic.Zero, logic.One} {
				if v0.undetectable(n, stuck) && v1.undetectable(n, stuck) {
					cand |= stuckBit(stuck)
				}
			}
			cand &^= marked[n]
			if cand == 0 {
				continue
			}
			// Sound confirmation: the taint cone and the two filtered
			// observability DPs run once per candidate node.
			taint, ok := cones[n]
			if !ok {
				taint = reach(c, n)
				cones[n] = taint
			}
			obs0 := an.observable(v0, taint)[n]
			obs1 := an.observable(v1, taint)[n]
			for _, stuck := range []logic.V{logic.Zero, logic.One} {
				req0 := v0.arr[n] == stuck || !obs0
				req1 := v1.arr[n] == stuck || !obs1
				if cand&stuckBit(stuck) != 0 && req0 && req1 {
					marked[n] |= stuckBit(stuck)
				}
			}
		}
	}
	return collapseMarked(c, marked)
}

// stuckBit is the bit of a per-node fault mask that stands for
// stuck-at-v; bothStuck marks both faults of a node.
func stuckBit(v logic.V) uint8 { return 1 << v }

const bothStuck = 1<<logic.Zero | 1<<logic.One

// view is the shared single-frame analysis for one base assignment: a copy
// of the implication engine's frame and the unfiltered observability map.
type view struct {
	arr []logic.V // forced values, indexed by node
	obs []bool
}

// undetectable reports whether the shared (unfiltered) analysis flags n
// stuck-at-stuck under this view: its good value is forced to the stuck
// value, or no path from it reaches an observation point.
func (v *view) undetectable(n netlist.NodeID, stuck logic.V) bool {
	return v.arr[n] == stuck || !v.obs[n]
}

// reach computes the structural fanout cone of n (crossing sequential
// elements), i.e. every node a fault on n could influence.
func reach(c *netlist.Circuit, n netlist.NodeID) []bool {
	seen := make([]bool, c.NumNodes())
	seen[n] = true
	queue := []netlist.NodeID{n}
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		for _, out := range c.Fanouts(m) {
			if !seen[out] {
				seen[out] = true
				queue = append(queue, out)
			}
		}
	}
	return seen
}

// analyzer performs the single-frame analyses: implication through the
// shared imply.Propagator, with the ties settled once into its base frame,
// and observability.
type analyzer struct {
	c    *netlist.Circuit
	prop *imply.Propagator
}

func newAnalyzer(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, db *imply.Snapshot) *analyzer {
	tieVal := make([]logic.V, c.NumNodes())
	for n, v := range ties {
		tieVal[n] = v
	}
	return &analyzer{c: c, prop: imply.NewPropagator(c, tieVal, db)}
}

// view copies the frame vals and computes its shared observability map.
func (a *analyzer) view(vals []logic.V) *view {
	v := &view{arr: slices.Clone(vals)}
	v.obs = a.observable(v, nil)
	return v
}

// stemView is the view of the ties plus stem s=val; nil when that
// assignment conflicts.
func (a *analyzer) stemView(s netlist.NodeID, val logic.V) *view {
	if !a.prop.Run(s, val) {
		return nil
	}
	return a.view(a.prop.Values())
}

// observable computes which nodes have an open path to an observation
// point under the forced values. With a nil taint this is the shared
// (unfiltered) DP: a path is blocked at a gate whose output is forced or
// that has a side input at its controlling value. With a taint filter (the
// fault site's fanout cone) only fault-independent blockers count.
func (a *analyzer) observable(v *view, taint []bool) []bool {
	c := a.c
	obs := make([]bool, c.NumNodes())

	for _, po := range c.POs {
		obs[po.Pin.Node] = true
	}
	for _, id := range c.Seqs {
		si := c.Nodes[id].Seq
		obs[si.D.Node] = true
		if si.HasSet() {
			obs[si.SetNet.Node] = true
		}
		if si.HasReset() {
			obs[si.ResetNet.Node] = true
		}
		for _, pt := range si.Ports {
			obs[pt.Enable.Node] = true
			obs[pt.Data.Node] = true
		}
	}

	order := c.EvalOrder()
	for i := len(order) - 1; i >= 0; i-- {
		g := order[i]
		if !obs[g] {
			continue
		}
		if v.arr[g] != logic.X && taint == nil {
			// Shared DP: a forced output propagates nothing. (With a
			// taint filter, a tainted gate's forced value cannot be
			// trusted, and an untainted gate is irrelevant to the fault's
			// paths, so the rule is dropped entirely.)
			continue
		}
		nd := &c.Nodes[g]
		ctrl, hasCtrl := nd.Op.Controlling()
		fanin := c.Fanin(g)
		for i, p := range fanin {
			blocked := false
			if hasCtrl {
				for j, q := range fanin {
					if j == i {
						continue
					}
					if taint != nil && taint[q.Node] {
						continue // blocker may be fault-affected
					}
					qv := v.arr[q.Node]
					if q.Inv {
						qv = qv.Not()
					}
					if qv == ctrl {
						blocked = true
						break
					}
				}
			}
			if !blocked {
				obs[p.Node] = true
			}
		}
	}
	return obs
}

// collapseMarked maps the marked faults (stuckBit masks indexed by node)
// onto collapsed representatives, ordered by node then stuck value.
func collapseMarked(c *netlist.Circuit, marked []uint8) *Result {
	_, rep := fault.Collapse(c)
	reps := make([]uint8, c.NumNodes())
	for n, m := range marked {
		for _, stuck := range []logic.V{logic.Zero, logic.One} {
			if m&stuckBit(stuck) != 0 {
				f := rep[fault.Fault{Node: netlist.NodeID(n), Stuck: stuck}]
				reps[f.Node] |= stuckBit(f.Stuck)
			}
		}
	}
	var out []fault.Fault
	for n, m := range reps {
		for _, stuck := range []logic.V{logic.Zero, logic.One} {
			if m&stuckBit(stuck) != 0 {
				out = append(out, fault.Fault{Node: netlist.NodeID(n), Stuck: stuck})
			}
		}
	}
	return &Result{Untestable: out}
}
