package fires

// This file keeps the stem-conflict analyzer as it was before the analyses
// moved onto imply.Propagator, as a differential oracle: its own worklist
// propagator (no XOR/XNOR parity completion, every tie re-propagated per
// view), map-based fault sets and the unfiltered/filtered observability
// DPs. TestFiresMatchesLegacy compares it with TieUntestable and Fires.

import (
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// refTieUntestable identifies untestable faults from learned tied gates.
func refTieUntestable(c *netlist.Circuit, lr *learn.Result) *Result {
	an := newRefAnalyzer(c, lr.Ties, nil)
	v := an.view(nil)
	if v == nil {
		return &Result{}
	}
	marked := map[fault.Fault]bool{}
	// Excitation claims are sound as-is.
	for n, fv := range v.forced {
		marked[fault.Fault{Node: n, Stuck: fv}] = true
	}
	// Observability candidates are re-checked with the taint filter.
	for id := range c.Nodes {
		n := netlist.NodeID(id)
		if v.obs[n] {
			continue
		}
		taint := reach(c, n)
		if !an.observable(v, taint)[n] {
			marked[fault.Fault{Node: n, Stuck: logic.Zero}] = true
			marked[fault.Fault{Node: n, Stuck: logic.One}] = true
		}
	}
	return refCollapse(c, marked)
}

// refFires runs the stem-conflict analysis.
func refFires(c *netlist.Circuit, lr *learn.Result, opt Options) *Result {
	var db *imply.Snapshot
	var ties map[netlist.NodeID]logic.V
	if lr != nil {
		ties = lr.Ties
		if opt.UseRelations {
			db = lr.DB
		}
	}
	an := newRefAnalyzer(c, ties, db)

	marked := map[fault.Fault]bool{}
	for _, s := range c.Stems() {
		v0 := an.view(&refAssign{node: s, val: logic.Zero})
		if v0 == nil {
			continue
		}
		v1 := an.view(&refAssign{node: s, val: logic.One})
		if v1 == nil {
			continue
		}

		// Candidate faults flagged by the shared (unfiltered) analysis on
		// both sides.
		cand := map[fault.Fault]bool{}
		for f := range v0.undetectable(c) {
			cand[f] = true
		}
		for f := range cand {
			if !v1.undetectable(c)[f] {
				delete(cand, f)
			}
		}
		if len(cand) == 0 {
			continue
		}
		// Sound per-candidate confirmation, grouped by fault node so the
		// taint cone and the two observability DPs run once per node.
		nodes := map[netlist.NodeID][]logic.V{}
		for f := range cand {
			if !marked[f] {
				nodes[f.Node] = append(nodes[f.Node], f.Stuck)
			}
		}
		for n, stucks := range nodes {
			taint := reach(c, n)
			obs0 := an.observable(v0, taint)[n]
			obs1 := an.observable(v1, taint)[n]
			for _, stuck := range stucks {
				f := fault.Fault{Node: n, Stuck: stuck}
				req0 := (v0.arr[n] != logic.X && v0.arr[n] == stuck) || !obs0
				req1 := (v1.arr[n] != logic.X && v1.arr[n] == stuck) || !obs1
				if req0 && req1 {
					marked[f] = true
				}
			}
		}
	}
	return refCollapse(c, marked)
}

type refAssign struct {
	node netlist.NodeID
	val  logic.V
}

// view is the shared single-frame analysis for one base assignment.
type refView struct {
	forced map[netlist.NodeID]logic.V
	arr    []logic.V // forced, as an array for O(1) reads in the DPs
	obs    []bool

	undet map[fault.Fault]bool // lazy cache
}

// undetectable returns the (unfiltered) fault set flagged under this view.
func (v *refView) undetectable(c *netlist.Circuit) map[fault.Fault]bool {
	if v.undet != nil {
		return v.undet
	}
	out := map[fault.Fault]bool{}
	for n, fv := range v.forced {
		out[fault.Fault{Node: n, Stuck: fv}] = true
	}
	for id := range c.Nodes {
		n := netlist.NodeID(id)
		if !v.obs[n] {
			out[fault.Fault{Node: n, Stuck: logic.Zero}] = true
			out[fault.Fault{Node: n, Stuck: logic.One}] = true
		}
	}
	v.undet = out
	return out
}

// refAnalyzer performs single-frame implication and observability analysis.
type refAnalyzer struct {
	c    *netlist.Circuit
	ties map[netlist.NodeID]logic.V
	db   *imply.Snapshot

	values  []logic.V
	touched []netlist.NodeID
	queue   []netlist.NodeID
	inQueue []bool
	bad     bool
}

func newRefAnalyzer(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, db *imply.Snapshot) *refAnalyzer {
	return &refAnalyzer{
		c:       c,
		ties:    ties,
		db:      db,
		values:  make([]logic.V, c.NumNodes()),
		inQueue: make([]bool, c.NumNodes()),
	}
}

// view computes forced values and the shared observability map for the
// base ties plus the optional extra assignment; nil when contradictory.
func (a *refAnalyzer) view(extra *refAssign) *refView {
	forced := a.propagate(extra)
	if forced == nil {
		return nil
	}
	v := &refView{forced: forced, arr: make([]logic.V, a.c.NumNodes())}
	for n, fv := range forced {
		v.arr[n] = fv
	}
	v.obs = a.observable(v, nil)
	return v
}

// propagate computes the values forced by ties plus the optional extra
// assignment, using forward evaluation, unique backward justification, and
// (optionally) learned relations. It returns nil when the assignment
// conflicts.
func (a *refAnalyzer) propagate(extra *refAssign) map[netlist.NodeID]logic.V {
	for _, n := range a.touched {
		a.values[n] = logic.X
	}
	a.touched = a.touched[:0]
	a.queue = a.queue[:0]
	for i := range a.inQueue {
		a.inQueue[i] = false
	}
	a.bad = false

	for n, v := range a.ties {
		a.set(n, v)
	}
	if extra != nil {
		a.set(extra.node, extra.val)
	}
	for len(a.queue) > 0 && !a.bad {
		n := a.queue[len(a.queue)-1]
		a.queue = a.queue[:len(a.queue)-1]
		a.inQueue[n] = false
		a.evalForward(n)
		if !a.bad {
			a.evalBackward(n)
		}
	}
	if a.bad {
		return nil
	}
	out := make(map[netlist.NodeID]logic.V, len(a.touched))
	for _, n := range a.touched {
		out[n] = a.values[n]
	}
	return out
}

func (a *refAnalyzer) set(n netlist.NodeID, v logic.V) {
	if v == logic.X || a.bad {
		return
	}
	cur := a.values[n]
	if cur == v {
		return
	}
	if cur != logic.X {
		a.bad = true
		return
	}
	a.values[n] = v
	a.touched = append(a.touched, n)
	a.enq(n)
	for _, out := range a.c.Fanouts(n) {
		if a.c.Nodes[out].Kind == netlist.KindGate {
			a.enq(out)
		}
	}
	if a.db != nil {
		for _, lit := range a.db.SameFrameImplied(imply.Lit{Node: n, Val: v}) {
			a.set(lit.Node, lit.Val)
		}
	}
}

func (a *refAnalyzer) enq(n netlist.NodeID) {
	if a.c.Nodes[n].Kind == netlist.KindGate && !a.inQueue[n] {
		a.inQueue[n] = true
		a.queue = append(a.queue, n)
	}
}

func (a *refAnalyzer) pinVal(p netlist.Pin) logic.V {
	v := a.values[p.Node]
	if p.Inv {
		v = v.Not()
	}
	return v
}

func (a *refAnalyzer) evalForward(n netlist.NodeID) {
	var buf [16]logic.V
	fanin := a.c.Fanin(n)
	vals := buf[:0]
	if cap(vals) < len(fanin) {
		vals = make([]logic.V, 0, len(fanin))
	}
	for _, p := range fanin {
		vals = append(vals, a.pinVal(p))
	}
	if v := logic.EvalSlice(a.c.Nodes[n].Op, vals); v != logic.X {
		a.set(n, v)
	}
}

func (a *refAnalyzer) evalBackward(n netlist.NodeID) {
	out := a.values[n]
	if out == logic.X {
		return
	}
	nd := &a.c.Nodes[n]
	fanin := a.c.Fanin(n)
	setPin := func(p netlist.Pin, v logic.V) {
		if p.Inv {
			v = v.Not()
		}
		a.set(p.Node, v)
	}
	switch nd.Op {
	case logic.OpBuf:
		setPin(fanin[0], out)
	case logic.OpNot:
		setPin(fanin[0], out.Not())
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		ctrl, _ := nd.Op.Controlling()
		eff := out
		if nd.Op.Inverts() {
			eff = eff.Not()
		}
		if eff == ctrl.Not() {
			for _, p := range fanin {
				setPin(p, ctrl.Not())
			}
			return
		}
		unknown := -1
		for i, p := range fanin {
			v := a.pinVal(p)
			if v == ctrl {
				return
			}
			if v == logic.X {
				if unknown >= 0 {
					return
				}
				unknown = i
			}
		}
		if unknown >= 0 {
			setPin(fanin[unknown], ctrl)
		} else {
			a.bad = true
		}
	}
}

// observable computes which nodes have an open path to an observation
// point under the forced values. With a nil taint this is the shared
// (unfiltered) DP: a path is blocked at a gate whose output is forced or
// that has a side input at its controlling value. With a taint filter (see
// obsWithTaint) only fault-independent blockers count.
func (a *refAnalyzer) observable(v *refView, taint []bool) []bool {
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

// refCollapse maps marked faults onto collapsed representatives.
func refCollapse(c *netlist.Circuit, marked map[fault.Fault]bool) *Result {
	_, rep := fault.Collapse(c)
	set := map[fault.Fault]bool{}
	for f := range marked {
		set[rep[f]] = true
	}
	out := make([]fault.Fault, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Stuck < out[j].Stuck
	})
	return &Result{Untestable: out}
}

// TestFiresMatchesLegacy: on XOR-free random circuits, TieUntestable,
// Fires with and without relations and Fires without learning return
// exactly the legacy analyzer's fault lists. With XOR/XNOR gates the
// shared engine's parity completion may only add faults, and every one it
// adds must survive random simulation.
func TestFiresMatchesLegacy(t *testing.T) {
	type run struct {
		tag      string
		got, ref func(c *netlist.Circuit, lr *learn.Result) *Result
	}
	runs := []run{
		{"tie", TieUntestable, refTieUntestable},
		{"rel", func(c *netlist.Circuit, lr *learn.Result) *Result {
			return Fires(c, lr, Options{UseRelations: true})
		}, func(c *netlist.Circuit, lr *learn.Result) *Result {
			return refFires(c, lr, Options{UseRelations: true})
		}},
		{"plain", func(c *netlist.Circuit, lr *learn.Result) *Result {
			return Fires(c, lr, Options{})
		}, func(c *netlist.Circuit, lr *learn.Result) *Result {
			return refFires(c, lr, Options{})
		}},
		{"nolearn", func(c *netlist.Circuit, _ *learn.Result) *Result {
			return Fires(c, nil, Options{})
		}, func(c *netlist.Circuit, _ *learn.Result) *Result {
			return refFires(c, nil, Options{})
		}},
	}
	extra := 0
	for _, xor := range []bool{false, true} {
		for seed := uint64(1); seed <= 40; seed++ {
			c := randCircuit(seed, xor)
			lr := learn.Learn(c, learn.Options{MaxFrames: 10})
			for _, r := range runs {
				got, want := r.got(c, lr), r.ref(c, lr)
				gotSet := names(c, got.Untestable)
				for f := range names(c, want.Untestable) {
					if !gotSet[f] {
						t.Fatalf("xor=%v seed %d %s: legacy flags %s, shared engine does not", xor, seed, r.tag, f)
					}
				}
				if len(got.Untestable) == len(want.Untestable) {
					continue
				}
				if !xor {
					t.Fatalf("seed %d %s: %d faults, legacy %d", seed, r.tag, len(got.Untestable), len(want.Untestable))
				}
				wantSet := names(c, want.Untestable)
				for f := range gotSet {
					if !wantSet[f] {
						extra++
						t.Logf("xor seed %d %s: parity completion adds %s", seed, r.tag, f)
					}
				}
				if removed := Verify(c, got, seed+3, 60, 14); removed != 0 {
					t.Fatalf("xor seed %d %s: %d flagged faults were detectable", seed, r.tag, removed)
				}
			}
		}
	}
	t.Logf("parity completion adds %d faults over the XOR circuits", extra)
}
