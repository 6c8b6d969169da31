package atpg

import (
	"repro/internal/fault"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// expanded is the time-frame-expanded 5-valued circuit model of one PODEM
// executor. It is sized once for the largest window and reused for every
// window and fault the executor searches: values are monotone within a
// search (X → known) and every cell write is trailed, so backtracking is a
// trail rollback and rollback(0) returns the model to its idle state —
// all-X values, no forbidden marks, an empty trail and worklist.
type expanded struct {
	c  *netlist.Circuit
	w  int // window size of the current search (frames 0..w-1)
	f  fault.Fault
	ri *relIndex

	mode Mode
	ties []learn.Tie

	// tainted marks nodes structurally reachable from the fault site
	// (through any number of frames): on those, learned facts constrain
	// only the good-machine component. taintList holds exactly the marked
	// nodes, in BFS order, so the next fault clears only those.
	tainted   []bool
	taintList []netlist.NodeID

	values [][]logic.V5 // [frame][node]
	forb   [][]uint8    // forbidden-value bits: bit0 = must-not-be-0, bit1 = must-not-be-1
	queued [][]bool     // [frame][node]: the node is on the worklist

	trail    []trailEntry
	conflict bool
	queue    []fnode // evaluation worklist

	// dfront holds the trail indices of the value entries that carry a
	// fault effect (D or D̄), in trail order: the nodes whose fanouts form
	// the D-frontier. Rollback truncates it with the trail.
	dfront []int

	// settleHook, when set (by tests), runs after every settle.
	settleHook func(*expanded)
}

type fnode struct {
	t int
	n netlist.NodeID
}

type trailEntry struct {
	at      fnode
	forbBit uint8 // 0 for value entries; else the bit that was set
}

// setFault binds the model to a fault and the options' learned data, and
// marks the fault's taint cone: every node reachable from the site,
// crossing sequential elements any number of times. The cone does not
// depend on the window, so it is computed once per fault.
func (e *expanded) setFault(f fault.Fault, opt *Options) {
	e.f = f
	e.mode = opt.Mode
	e.ties = opt.Ties
	e.ri = opt.rels
	for _, n := range e.taintList {
		e.tainted[n] = false
	}
	e.taintList = append(e.taintList[:0], f.Node)
	e.tainted[f.Node] = true
	for i := 0; i < len(e.taintList); i++ {
		for _, out := range e.c.Fanouts(e.taintList[i]) {
			if !e.tainted[out] {
				e.tainted[out] = true
				e.taintList = append(e.taintList, out)
			}
		}
	}
}

// init asserts ties and schedules the fault site, returning false on
// immediate conflict.
func (e *expanded) init() bool {
	for _, tie := range e.ties {
		for t := tie.Frame; t < e.w; t++ {
			at := fnode{t, tie.Node}
			switch {
			case tie.Node == e.f.Node:
				// Good component tied; faulty component stuck.
				if !e.assign(at, logic.Compose(tie.Val, e.f.Stuck)) {
					return false
				}
			case e.tainted[tie.Node]:
				// Only the good component is pinned; not representable —
				// skip (sound, loses a little pruning).
			default:
				if !e.assign(at, logic.Compose(tie.Val, tie.Val)) {
					return false
				}
			}
		}
	}
	return e.settle()
}

// assign sets a value, detects conflicts (including forbidden marks) and
// triggers consequences. X assignments are ignored.
func (e *expanded) assign(at fnode, v logic.V5) bool {
	if v == logic.X5 || e.conflict {
		return !e.conflict
	}
	cur := e.values[at.t][at.n]
	if cur == v {
		return true
	}
	if cur != logic.X5 {
		e.conflict = true
		return false
	}
	// Forbidden-value check: a binary value hitting its forbidden mark is
	// a conflict discovered early (the paper's main pruning effect).
	if g := v.Good(); g.Known() {
		bit := uint8(1)
		if g == logic.One {
			bit = 2
		}
		if e.forb[at.t][at.n]&bit != 0 {
			e.conflict = true
			return false
		}
	}
	e.values[at.t][at.n] = v
	if v.Faulted() {
		e.dfront = append(e.dfront, len(e.trail))
	}
	e.trail = append(e.trail, trailEntry{at: at})
	e.enqueueFanouts(at)
	if g := v.Good(); g.Known() {
		if !e.applyRelations(at, g) {
			return false
		}
	}
	return true
}

func (e *expanded) enqueueFanouts(at fnode) {
	for _, out := range e.c.Fanouts(at.n) {
		nd := &e.c.Nodes[out]
		if nd.Kind == netlist.KindGate {
			e.push(fnode{at.t, out})
		} else if nd.Seq != nil && at.t+1 < e.w {
			e.push(fnode{at.t + 1, out})
		}
	}
	// A sequential node's own value change (capture) does not re-trigger
	// its frame; its fanouts were pushed above.
}

func (e *expanded) push(at fnode) {
	if !e.queued[at.t][at.n] {
		e.queued[at.t][at.n] = true
		e.queue = append(e.queue, at)
	}
}

// applyRelations fires the learned same-frame relations for a good-known
// literal (paper Section 4).
//
// Most consequents are already settled, typically by sibling consequences
// of the same decision, and the mode-specific loops skip those inline
// where applyOne would provably do nothing:
//   - Forbidden mode skips a consequent w whose complement is already
//     marked forbidden: markForbidden would return at once, and since no
//     cell ever holds a good value it forbids, the good value is not ¬w,
//     so the conflict check cannot fire. A known good value alone is no
//     reason to skip: the mark would still propagate into X fanins.
//   - Known and no-learning modes skip a consequent whose good value
//     already is w: untainted nodes never hold D or D̄, so the assignment
//     would be a no-op, and tainted nodes only get the conflict check.
func (e *expanded) applyRelations(at fnode, g logic.V) bool {
	// Only trust the antecedent when it is a pure good-machine fact: on
	// tainted nodes the composite good component is still the good
	// machine's value, so the antecedent always holds for the good
	// machine.
	k := litKey(imply.Lit{Node: at.n, Val: g})
	same := &e.ri.same
	lo, hi := same.off[k], same.off[k+1]
	t := int32(at.t)
	if e.mode == ModeForbidden {
		forb := e.forb[at.t]
		for i := lo; i < hi; i++ {
			tg := same.tgt[i]
			// bit of ¬w: must-not-be-0 (1) for w = 1, must-not-be-1 (2)
			// for w = 0.
			if t < same.arg[i] || forb[litNode(tg)]&(2>>(tg&1)) != 0 {
				continue // not enough history in this window, or settled
			}
			if !e.applyOne(fnode{at.t, litNode(tg)}, litVal(tg)) {
				return false
			}
		}
	} else {
		vals := e.values[at.t]
		for i := lo; i < hi; i++ {
			tg := same.tgt[i]
			w := litVal(tg)
			if t < same.arg[i] || vals[litNode(tg)].Good() == w {
				continue
			}
			if !e.applyOne(fnode{at.t, litNode(tg)}, w) {
				return false
			}
		}
	}
	// Cross-frame relations (window extension): the consequent lands in a
	// different frame; the in-window bound implies enough history for the
	// direct relations learning stores.
	cross := &e.ri.cross
	for i := cross.off[k]; i < cross.off[k+1]; i++ {
		ft := at.t + int(cross.arg[i])
		if ft < 0 || ft >= e.w {
			continue
		}
		tg := cross.tgt[i]
		if !e.applyOne(fnode{ft, litNode(tg)}, litVal(tg)) {
			return false
		}
	}
	return true
}

// applyOne fires a single implied literal at a frame node according to the
// learning-use mode.
func (e *expanded) applyOne(m fnode, w logic.V) bool {
	cur := e.values[m.t][m.n]
	if cg := cur.Good(); cg.Known() && cg != w {
		e.conflict = true // good-machine contradiction
		return false
	}
	switch e.mode {
	case ModeKnown, ModeNoLearning:
		// Assert the implied value outright on untainted nodes (good
		// == faulty there).
		if !e.tainted[m.n] {
			if !e.assign(m, logic.Compose(w, w)) {
				return false
			}
		}
	case ModeForbidden:
		if !e.markForbidden(m, w.Not()) {
			return false
		}
	}
	return true
}

// markForbidden records "node must not be v" and propagates the mark as a
// pseudo-value ("Forbidden 0 is implied as 1, and forbidden 1 is implied
// as 0").
func (e *expanded) markForbidden(at fnode, v logic.V) bool {
	if e.conflict {
		return false
	}
	bit := uint8(1)
	if v == logic.One {
		bit = 2
	}
	if e.forb[at.t][at.n]&bit != 0 {
		return true // already marked
	}
	// A known value equal to the newly forbidden one is a conflict.
	if g := e.values[at.t][at.n].Good(); g.Known() && g == v {
		e.conflict = true
		return false
	}
	e.forb[at.t][at.n] |= bit
	e.trail = append(e.trail, trailEntry{at: at, forbBit: bit})
	if e.forb[at.t][at.n] == 3 {
		e.conflict = true // nothing left for the node to be
		return false
	}
	e.propagateForbidden(at)
	return !e.conflict
}

// propagateForbidden pushes a mark backward through unique-justification
// structures and both ways through buffers/inverters and flip-flops.
func (e *expanded) propagateForbidden(at fnode) {
	nd := &e.c.Nodes[at.n]
	mustNot0 := e.forb[at.t][at.n]&1 != 0 // node must be 1 if binary
	mustNot1 := e.forb[at.t][at.n]&2 != 0

	markPin := func(t int, p netlist.Pin, v logic.V) {
		if p.Inv {
			v = v.Not()
		}
		e.markForbidden(fnode{t, p.Node}, v)
	}

	switch nd.Kind {
	case netlist.KindGate:
		fanin := e.c.Fanin(at.n)
		switch nd.Op {
		case logic.OpBuf:
			if mustNot0 {
				markPin(at.t, fanin[0], logic.Zero)
			}
			if mustNot1 {
				markPin(at.t, fanin[0], logic.One)
			}
		case logic.OpNot:
			if mustNot0 {
				markPin(at.t, fanin[0], logic.One)
			}
			if mustNot1 {
				markPin(at.t, fanin[0], logic.Zero)
			}
		case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
			ctrl, _ := nd.Op.Controlling()
			controlled := nd.Op.ControlledOutput()
			// "Must not be the controlled output" means no input may
			// carry the controlling value.
			forbidControlled := (controlled == logic.Zero && mustNot0) ||
				(controlled == logic.One && mustNot1)
			if forbidControlled {
				for _, p := range fanin {
					markPin(at.t, p, ctrl)
				}
			}
		}
	case netlist.KindDFF, netlist.KindLatch:
		si := nd.Seq
		// A mark on the output becomes a mark on the D pin one frame
		// earlier, unless set/reset or extra ports could override.
		if at.t > 0 && !si.HasSet() && !si.HasReset() && len(si.Ports) == 0 {
			if mustNot0 {
				markPin(at.t-1, si.D, logic.Zero)
			}
			if mustNot1 {
				markPin(at.t-1, si.D, logic.One)
			}
		}
	}
}

// settle evaluates the worklist to fixpoint.
func (e *expanded) settle() bool {
	for len(e.queue) > 0 && !e.conflict {
		at := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.queued[at.t][at.n] = false
		e.eval(at)
	}
	if e.settleHook != nil {
		e.settleHook(e)
	}
	return !e.conflict
}

// eval computes the value of a gate or a sequential capture.
func (e *expanded) eval(at fnode) {
	nd := &e.c.Nodes[at.n]
	switch nd.Kind {
	case netlist.KindGate:
		v := eval5(nd.Op, e.c.Fanin(at.n), e.values[at.t])
		if at.n == e.f.Node {
			v = e.forceFault(v)
		}
		e.assign(at, v)
	case netlist.KindDFF, netlist.KindLatch:
		if at.t == 0 {
			return // unknown initial state
		}
		v := e.capture(at.t-1, nd.Seq)
		if at.n == e.f.Node {
			v = e.forceFault(v)
		}
		e.assign(at, v)
	}
}

// forceFault recomposes a value at the fault site: the faulty component is
// stuck, the good component follows the evaluation.
func (e *expanded) forceFault(v logic.V5) logic.V5 {
	g := v.Good()
	if !g.Known() {
		return logic.X5
	}
	return logic.Compose(g, e.f.Stuck)
}

// capture computes the 5-valued next-state of a sequential element from
// frame t, mirroring the functional simulator's pessimistic semantics in
// both machines.
func (e *expanded) capture(t int, si *netlist.SeqInfo) logic.V5 {
	read3 := func(p netlist.Pin, side func(logic.V5) logic.V) logic.V {
		v := side(e.values[t][p.Node])
		if p.Inv {
			v = v.Not()
		}
		return v
	}
	one := func(side func(logic.V5) logic.V) logic.V {
		q := read3(si.D, side)
		for _, pt := range si.Ports {
			en := read3(pt.Enable, side)
			d := read3(pt.Data, side)
			switch en {
			case logic.One:
				q = d
			case logic.X:
				if q != d {
					q = logic.X
				}
			}
		}
		if si.HasReset() {
			switch read3(si.ResetNet, side) {
			case logic.One:
				q = logic.Zero
			case logic.X:
				if q != logic.Zero {
					q = logic.X
				}
			}
		}
		if si.HasSet() {
			switch read3(si.SetNet, side) {
			case logic.One:
				q = logic.One
			case logic.X:
				if q != logic.One {
					q = logic.X
				}
			}
		}
		return q
	}
	g := one(logic.V5.Good)
	f := one(logic.V5.Faulty)
	if !g.Known() || !f.Known() {
		return logic.X5
	}
	return logic.Compose(g, f)
}

// assignPI applies a decision or implication on a primary input.
func (e *expanded) assignPI(at fnode, v logic.V) bool {
	val := logic.Compose(v, v)
	if at.n == e.f.Node {
		val = logic.Compose(v, e.f.Stuck)
	}
	if !e.assign(at, val) {
		return false
	}
	return e.settle()
}

// mark returns the current trail position for later rollback.
func (e *expanded) mark() int { return len(e.trail) }

// rollback undoes trail entries past the mark, clears conflict state and
// empties the worklist. Only nodes still queued carry a set flag (settle
// clears each flag as it pops the node), so clearing those suffices.
func (e *expanded) rollback(mark int) {
	for i := len(e.trail) - 1; i >= mark; i-- {
		te := e.trail[i]
		if te.forbBit != 0 {
			e.forb[te.at.t][te.at.n] &^= te.forbBit
		} else {
			e.values[te.at.t][te.at.n] = logic.X5
		}
	}
	e.trail = e.trail[:mark]
	n := len(e.dfront)
	for n > 0 && e.dfront[n-1] >= mark {
		n--
	}
	e.dfront = e.dfront[:n]
	e.conflict = false
	for _, at := range e.queue {
		e.queued[at.t][at.n] = false
	}
	e.queue = e.queue[:0]
}

// detected reports whether a fault effect has reached a primary output.
func (e *expanded) detected() bool {
	for t := 0; t < e.w; t++ {
		for _, po := range e.c.POs {
			if e.values[t][po.Pin.Node].Faulted() {
				return true
			}
		}
	}
	return false
}
