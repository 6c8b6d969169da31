package atpg

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
// all cells zero (X, no forbidden marks, no flags), an empty trail and
// worklist.
type expanded struct {
	c  *netlist.Circuit
	n  int // nodes per frame: cell (t, node) is cells[t*n+node]
	w  int // window size of the current search (frames 0..w-1)
	f  fault.Fault
	ri *relIndex

	mode Mode
	ties []learn.Tie
	// faultTie is the first frame a tie on the fault node holds from
	// (math.MaxInt: no such tie); windows past it assert the tie as D or
	// D̄ in init.
	faultTie int

	// tainted marks nodes structurally reachable from the fault site
	// (through any number of frames): on those, learned facts constrain
	// only the good-machine component. taintList holds exactly the marked
	// nodes, in BFS order, so the next fault clears only those.
	tainted   []bool
	taintList []netlist.NodeID

	// sinks is the circuit's fanout table in CSR form: node m's sinks are
	// sinks[sinkOff[m]:sinkOff[m+1]], in netlist fanout order, each packed
	// as out<<1 with the low bit set for a sequential element (evaluated
	// one frame later).
	sinkOff []int32
	sinks   []uint32

	cells    []cell
	trail    []uint32 // cell index<<2 | forbidden bit (0 for a value entry)
	conflict bool
	queue    []fnode // evaluation worklist

	// dfront holds the trail indices of the value entries that carry a
	// fault effect (D or D̄), in trail order: the nodes whose fanouts form
	// the D-frontier. Rollback truncates it with the trail.
	dfront []int

	// closures caches tie closures across the faults and windows the
	// executor searches (nil: init always computes the closure).
	closures *closureCache
	stats    initStats

	// settleHook, when set (by tests), runs after every settle and every
	// restored closure.
	settleHook func(*expanded)
}

type fnode struct {
	t int
	n netlist.NodeID
}

// cell is one (frame, node) position of the expanded model: its
// five-valued value in the low bits, then the forbidden marks and the
// worklist flags. The zero cell is idle: X, unmarked, not queued.
type cell uint8

const (
	cellValue   cell = 7      // the logic.V5 value
	cellNot0    cell = 1 << 3 // forbidden mark: must not be 0
	cellNot1    cell = 1 << 4 // forbidden mark: must not be 1
	cellQueued  cell = 1 << 5 // on the worklist
	cellDerived cell = 1 << 6 // value set by the cell's own evaluation

	// forbShift places a forbidden bit (1 = must-not-be-0, 2 =
	// must-not-be-1, as trailed) on the cell's marks.
	forbShift = 3
)

func (c cell) val() logic.V5 { return logic.V5(c & cellValue) }

// forb returns the forbidden bits: bit0 = must-not-be-0, bit1 =
// must-not-be-1.
func (c cell) forb() uint8 { return uint8(c>>forbShift) & 3 }

// initStats counts how init produced each tie closure: restored from a
// snapshot, or computed (fallback), in which case it may also have been
// recorded as a new snapshot (built).
type initStats struct {
	restored, built, fallback int
}

// newExpanded allocates an idle model of maxW frames of c.
func newExpanded(c *netlist.Circuit, maxW int) *expanded {
	n := c.NumNodes()
	if uint64(maxW)*uint64(n) > 1<<30 {
		panic(fmt.Sprintf("atpg: %d frames of %d nodes exceed the model's 2^30 cells", maxW, n))
	}
	e := &expanded{
		c:       c,
		n:       n,
		tainted: make([]bool, n),
		cells:   make([]cell, maxW*n),
		sinkOff: make([]int32, n+1),
	}
	for m := range n {
		for _, out := range c.Fanouts(netlist.NodeID(m)) {
			s := uint32(out) << 1
			if c.Nodes[out].Seq != nil {
				s |= 1
			}
			e.sinks = append(e.sinks, s)
		}
		e.sinkOff[m+1] = int32(len(e.sinks))
	}
	return e
}

// index returns the cell index of a frame node.
func (e *expanded) index(at fnode) int { return at.t*e.n + int(at.n) }

// cellAt returns the cell of a frame node.
func (e *expanded) cellAt(at fnode) cell { return e.cells[at.t*e.n+int(at.n)] }

// fnodeOf returns the frame node of a trail entry.
func (e *expanded) fnodeOf(te uint32) fnode {
	i := int(te >> 2)
	return fnode{i / e.n, netlist.NodeID(i % e.n)}
}

// sinksOf returns node m's packed sinks.
func (e *expanded) sinksOf(m netlist.NodeID) []uint32 {
	return e.sinks[e.sinkOff[m]:e.sinkOff[m+1]]
}

// setFault binds the model to a fault and the options' learned data, and
// marks the fault's taint cone: every node reachable from the site,
// crossing sequential elements any number of times. The cone does not
// depend on the window, so it is computed once per fault, and so is the
// part of the closure cache key it determines.
func (e *expanded) setFault(f fault.Fault, opt *Options) {
	e.f = f
	e.mode = opt.Mode
	e.ties = opt.Ties
	e.ri = opt.rels
	e.faultTie = math.MaxInt
	for _, tie := range e.ties {
		if tie.Node == f.Node {
			e.faultTie = min(e.faultTie, tie.Frame)
		}
	}
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
	if e.closures != nil {
		e.closures.setKey(e.ri, e.tainted)
	}
}

// init asserts ties and settles them — the window's tie closure — and
// returns false on conflict. With a closure cache it restores the closure
// from a snapshot when one applies and records a snapshot the second time
// a key is seen; the model ends in the same state either way (see
// closureCache).
func (e *expanded) init() bool {
	cc := e.closures
	if cc == nil || e.faultTie < e.w {
		e.stats.fallback++
		return e.closure()
	}
	s, seen := cc.lookup(e.w)
	if s != nil {
		if e.restore(s) {
			e.stats.restored++
			return true
		}
		e.rollback(0)
	}
	e.stats.fallback++
	ok := e.closure()
	switch {
	case !seen:
		cc.snaps[string(cc.key)] = nil
	case s == nil && ok && len(e.dfront) == 0:
		cc.snaps[string(cc.key)] = record(e)
		e.stats.built++
	}
	return ok
}

// closure asserts the ties that hold in the window and settles them.
func (e *expanded) closure() bool {
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

// closureCache keeps one executor's tie closures as snapshots: the trail
// entries a settled closure wrote, with the cell bits each set, replayed
// by restore instead of asserting and settling the ties again.
//
// A closure depends on the window, on which ties are asserted (those on
// untainted nodes) and, in the known and no-learning modes, on which
// relation consequents are asserted (applyOne skips tainted ones). The key
// is the window plus the taint bits of exactly those nodes (relIndex.
// keyNodes); no other part of the closure reads the fault, except the
// fault site itself. A snapshot is recorded only from a closure that
// created no fault effect (dfront empty) for a fault with no tie asserted
// on its node in the window: there every fault-site evaluation gave a good
// value equal to the stuck value, or X, so the closure is exactly the
// fault-free one. It is restored only under the same two conditions for
// the new fault — no tie asserted on its node, and no fault-site cell of
// the snapshot with a known good value ≠ stuck — so the new fault's
// closure is that same fault-free fixpoint, which is unique whatever the
// evaluation order. Otherwise, and whenever the closure conflicts, init
// computes the closure.
type closureCache struct {
	ri    *relIndex               // the compiled options the snapshots hold for
	key   []byte                  // window (4 bytes), then the current fault's key bits
	snaps map[string]*closureSnap // by key; nil for a key seen once
}

// closureSnap is one recorded closure: its trail entries, and the cell
// bits each entry sets.
type closureSnap struct {
	ents []uint32
	bits []cell
}

// setKey fills the key bits from the taint marks of ri's key nodes,
// dropping every snapshot if ri is not the index they were built under (a
// new cache holds none).
func (cc *closureCache) setKey(ri *relIndex, tainted []bool) {
	if cc.ri != ri {
		*cc = closureCache{ri: ri, snaps: map[string]*closureSnap{}, key: make([]byte, 4+(len(ri.keyNodes)+7)/8)}
	}
	bits := cc.key[4:]
	clear(bits)
	for i, n := range ri.keyNodes {
		if tainted[n] {
			bits[i>>3] |= 1 << (i & 7)
		}
	}
}

// lookup completes the key with window w and returns its snapshot, if
// recorded, and whether the key was seen before.
func (cc *closureCache) lookup(w int) (*closureSnap, bool) {
	binary.LittleEndian.PutUint32(cc.key, uint32(w))
	s, ok := cc.snaps[string(cc.key)]
	return s, ok
}

// record copies the settled closure in e into a snapshot.
func record(e *expanded) *closureSnap {
	s := &closureSnap{ents: slices.Clone(e.trail), bits: make([]cell, len(e.trail))}
	for i, te := range s.ents {
		if bit := te & 3; bit != 0 {
			s.bits[i] = cell(bit) << forbShift
		} else {
			s.bits[i] = e.cells[te>>2] & (cellValue | cellDerived)
		}
	}
	return s
}

// restore replays a snapshot onto the idle model and reports whether it
// applies to the current fault: no fault-site cell may hold a known good
// value other than the stuck value. On false the caller rolls back.
func (e *expanded) restore(s *closureSnap) bool {
	for i, te := range s.ents {
		e.cells[te>>2] |= s.bits[i]
	}
	e.trail = append(e.trail, s.ents...)
	for t := 0; t < e.w; t++ {
		if g := e.cellAt(fnode{t, e.f.Node}).val().Good(); g.Known() && g != e.f.Stuck {
			return false
		}
	}
	if e.settleHook != nil {
		e.settleHook(e)
	}
	return true
}

// assign sets a value, detects conflicts (including forbidden marks) and
// triggers consequences. X assignments are ignored.
func (e *expanded) assign(at fnode, v logic.V5) bool {
	return e.set(at, v, 0)
}

// set is assign with the flag the written cell gets: cellDerived when v is
// the cell's own evaluation, else 0.
func (e *expanded) set(at fnode, v logic.V5, flag cell) bool {
	if v == logic.X5 || e.conflict {
		return !e.conflict
	}
	i := e.index(at)
	c := e.cells[i]
	if cur := c.val(); cur == v {
		return true
	} else if cur != logic.X5 {
		e.conflict = true
		return false
	}
	// Forbidden-value check: a binary value hitting its forbidden mark is
	// a conflict discovered early (the paper's main pruning effect).
	g := v.Good()
	if g.Known() {
		mark := cellNot0
		if g == logic.One {
			mark = cellNot1
		}
		if c&mark != 0 {
			e.conflict = true
			return false
		}
	}
	e.cells[i] = c | cell(v) | flag
	if v.Faulted() {
		e.dfront = append(e.dfront, len(e.trail))
	}
	e.trail = append(e.trail, uint32(i)<<2)
	e.enqueueFanouts(at)
	if g.Known() {
		if !e.applyRelations(at, g) {
			return false
		}
	}
	return true
}

func (e *expanded) enqueueFanouts(at fnode) {
	for _, s := range e.sinksOf(at.n) {
		out := netlist.NodeID(s >> 1)
		if s&1 == 0 {
			e.push(fnode{at.t, out})
		} else if at.t+1 < e.w {
			e.push(fnode{at.t + 1, out})
		}
	}
	// A sequential node's own value change (capture) does not re-trigger
	// its frame; its fanouts were pushed above.
}

// push queues a cell for evaluation unless it is queued already or holds
// a value its own evaluation derived: evaluation is monotone as inputs
// turn known, so re-evaluating a derived cell returns the value it holds.
// Dropping such a no-op pop leaves the order of every other pop, and so
// every trail and D-frontier, unchanged. Cells set by a tie or a relation
// are still re-evaluated: that is their conflict check.
func (e *expanded) push(at fnode) {
	i := e.index(at)
	if e.cells[i]&(cellQueued|cellDerived) == 0 {
		e.cells[i] |= cellQueued
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
	t := int32(at.t)
	frame := e.cells[at.t*e.n : (at.t+1)*e.n]
	if e.mode == ModeForbidden {
		for _, r := range same.ents[same.off[k]:same.off[k+1]] {
			// The mark of ¬w: must-not-be-0 for w = 1, must-not-be-1 for
			// w = 0.
			if t < r.arg || frame[litNode(r.tgt)]&(cellNot1>>(r.tgt&1)) != 0 {
				continue // not enough history in this window, or settled
			}
			if !e.applyOne(fnode{at.t, litNode(r.tgt)}, litVal(r.tgt)) {
				return false
			}
		}
	} else {
		for _, r := range same.ents[same.off[k]:same.off[k+1]] {
			w := litVal(r.tgt)
			if t < r.arg || frame[litNode(r.tgt)].val().Good() == w {
				continue
			}
			if !e.applyOne(fnode{at.t, litNode(r.tgt)}, w) {
				return false
			}
		}
	}
	return true
}

// applyOne fires a single implied literal at a frame node according to the
// learning-use mode.
func (e *expanded) applyOne(m fnode, w logic.V) bool {
	if cg := e.cellAt(m).val().Good(); cg.Known() && cg != w {
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
	bit := uint32(1)
	if v == logic.One {
		bit = 2
	}
	i := e.index(at)
	c := e.cells[i]
	mark := cell(bit) << forbShift
	if c&mark != 0 {
		return true // already marked
	}
	// A known value equal to the newly forbidden one is a conflict.
	if g := c.val().Good(); g.Known() && g == v {
		e.conflict = true
		return false
	}
	c |= mark
	e.cells[i] = c
	e.trail = append(e.trail, uint32(i)<<2|bit)
	if c&(cellNot0|cellNot1) == cellNot0|cellNot1 {
		e.conflict = true // nothing left for the node to be
		return false
	}
	e.propagateForbidden(at, c)
	return !e.conflict
}

// propagateForbidden pushes the marks of cell c at a frame node backward
// through unique-justification structures and both ways through
// buffers/inverters and flip-flops.
func (e *expanded) propagateForbidden(at fnode, c cell) {
	nd := &e.c.Nodes[at.n]
	mustNot0 := c&cellNot0 != 0 // node must be 1 if binary
	mustNot1 := c&cellNot1 != 0

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
		e.cells[e.index(at)] &^= cellQueued
		e.set(at, e.evalCell(at), cellDerived)
	}
	if e.settleHook != nil {
		e.settleHook(e)
	}
	return !e.conflict
}

// evalCell computes the value of a gate or a sequential capture from its
// inputs' cells; it is X for a primary input and for a sequential element
// in frame 0 (unknown initial state).
func (e *expanded) evalCell(at fnode) logic.V5 {
	nd := &e.c.Nodes[at.n]
	var v logic.V5
	switch nd.Kind {
	case netlist.KindGate:
		v = eval5(nd.Op, e.c.Fanin(at.n), e.cells[at.t*e.n:(at.t+1)*e.n])
	case netlist.KindDFF, netlist.KindLatch:
		if at.t == 0 {
			return logic.X5
		}
		v = e.capture(at.t-1, nd.Seq)
	default:
		return logic.X5
	}
	if at.n == e.f.Node {
		v = e.forceFault(v)
	}
	return v
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
	frame := e.cells[t*e.n : (t+1)*e.n]
	read3 := func(p netlist.Pin, side func(logic.V5) logic.V) logic.V {
		v := side(frame[p.Node].val())
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
// empties the worklist. Only cells still queued carry the queued flag
// (settle clears each flag as it pops the cell), so clearing those
// suffices.
func (e *expanded) rollback(mark int) {
	for _, te := range e.trail[mark:] {
		if bit := te & 3; bit != 0 {
			e.cells[te>>2] &^= cell(bit) << forbShift
		} else {
			e.cells[te>>2] &^= cellValue | cellDerived
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
		e.cells[e.index(at)] &^= cellQueued
	}
	e.queue = e.queue[:0]
}

// detected reports whether a fault effect has reached a primary output. A
// cell holds D or D̄ only through a trailed value entry, so with no such
// entry (dfront empty) nothing can have.
func (e *expanded) detected() bool {
	if len(e.dfront) == 0 {
		return false
	}
	for t := 0; t < e.w; t++ {
		frame := e.cells[t*e.n : (t+1)*e.n]
		for _, po := range e.c.POs {
			if frame[po.Pin.Node].val().Faulted() {
				return true
			}
		}
	}
	return false
}
