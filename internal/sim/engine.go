// Package sim provides the simulation engines used by the sequential
// learner and its consumers:
//
//   - Engine: an event-driven, three-valued, frame-by-frame simulator with
//     scheduled value injections, tied-gate constants, equivalence
//     propagation, conflict detection and repeated-state early stopping.
//     This is the machinery behind both single-node and multiple-node
//     learning (paper Section 3).
//
//   - FuncSim: a functional three-valued simulator with active set/reset
//     and multi-port latch semantics, used as the reference machine for
//     soundness property tests and by the fault simulator.
//
//   - PatternSim: a 64-way parallel-pattern combinational simulator used
//     for gate-equivalence signatures.
package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Assign is a known value on a node.
type Assign struct {
	Node netlist.NodeID
	Val  logic.V
}

// Frame is the set of known node values in one time frame, sorted by node.
type Frame []Assign

// Get returns the value of node n in the frame (X if absent).
func (f Frame) Get(n netlist.NodeID) logic.V {
	i := sort.Search(len(f), func(i int) bool { return f[i].Node >= n })
	if i < len(f) && f[i].Node == n {
		return f[i].Val
	}
	return logic.X
}

// Injection schedules a value assumption on a node in a given frame.
type Injection struct {
	Frame int
	Node  netlist.NodeID
	Val   logic.V
}

// PropMode restricts which values may cross a sequential element during
// learning simulation (paper Sections 3.3.1-3.3.3).
type PropMode uint8

// Propagation modes.
const (
	PropBoth  PropMode = iota // ordinary element: both values cross
	Prop1Only                 // unconstrained set: only 1 crosses
	Prop0Only                 // unconstrained reset: only 0 crosses
	PropNone                  // multi-port latch, both set+reset, or foreign class
)

// Options configures a scheduled simulation run.
type Options struct {
	// MaxFrames caps the number of simulated frames (default 50, the
	// paper's setting).
	MaxFrames int

	// Equiv lists equivalence partners: whenever a node becomes known,
	// each of its partners is asserted to the same value.
	Equiv map[netlist.NodeID][]netlist.NodeID

	// PropModes, indexed like Circuit.Seqs, gates value propagation
	// across sequential elements; nil means PropBoth everywhere.
	PropModes []PropMode

	// NoEarlyStop disables the repeated-state stopping rule (ablation).
	NoEarlyStop bool

	// NoFrameRecords, honored only by PackedEngine.RunScheduled, skips
	// building the shared frame records: NumFrames, the conflict and
	// early-stop masks, and CaptureLast frames stay valid, while Results
	// sees empty frames. The multiple-node learning
	// sweep reads nothing but frame T, so it sets this to avoid paying for
	// the 64-lane union records. Engine.Run ignores it — the scalar result
	// is the frame records.
	NoFrameRecords bool
}

// DefaultMaxFrames is the paper's frame cap for learning simulation.
const DefaultMaxFrames = 50

// Result is the outcome of a scheduled simulation.
type Result struct {
	// Frames[t] holds every known node value in frame t (injections and
	// ties included).
	Frames []Frame

	// Conflict is set when an injected or derived value contradicted
	// another derivation; ConflictNode/ConflictFrame locate it. A conflict
	// during multiple-node learning proves the learning target is a tied
	// gate (paper Section 3.2).
	Conflict      bool
	ConflictNode  netlist.NodeID
	ConflictFrame int

	// StoppedEarly is set when simulation ended because the implied state
	// repeated over two consecutive frames.
	StoppedEarly bool
}

// Engine is a reusable scheduled simulator for one circuit, one run at a
// time. It keeps its scratch arrays between runs, so replaying thousands of
// runs does not allocate per run. It is the reference the packed scheduled
// runner is checked against (TestRunScheduledMatchesEngine) and the
// denominator of the packed learning speed gate. An Engine is not safe for
// concurrent use.
type Engine struct {
	c *netlist.Circuit

	values  []logic.V
	touched []netlist.NodeID
	queue   []netlist.NodeID
	inQueue []bool

	// tie constants, including their constant-propagation closure; read
	// through wherever a frame value is X. Set once via SetTies — much
	// cheaper than re-asserting them into every frame of every run.
	tieVal []logic.V

	// Run scratch, reused across runs: the frame-sorted injection buffer
	// and the sequential-state double buffer (dense Seqs indices).
	injBuf         []Injection
	stateA, stateB []seqAssign

	conflict     bool
	conflictNode netlist.NodeID
}

// seqAssign is a captured sequential-element value, keyed by the element's
// dense index in Circuit.Seqs. Lists of seqAssign are always kept in index
// order, so state comparison is a plain slice walk.
type seqAssign struct {
	seq int32
	val logic.V
}

// NewEngine returns a scheduled simulator for c.
func NewEngine(c *netlist.Circuit) *Engine {
	return &Engine{
		c:       c,
		values:  make([]logic.V, c.NumNodes()),
		inQueue: make([]bool, c.NumNodes()),
		tieVal:  make([]logic.V, c.NumNodes()),
	}
}

// ClampWorkers resolves a requested worker-pool size, shared by every
// sharded pipeline (learning, fault simulation, the ATPG driver): 0 or
// less selects one worker per core, and oversized requests are clamped —
// beyond a few workers per core there is no speedup, only scratch memory.
// The floor keeps small machines able to exercise real concurrency.
func ClampWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	limit := 4 * runtime.GOMAXPROCS(0)
	if limit < 8 {
		limit = 8
	}
	if n > limit {
		n = limit
	}
	return n
}

// SetTies installs tied-gate constants (nil clears them). The constants
// are closed under forward constant propagation once, so chains of
// tie-determined gates behave as constants in every later run.
func (e *Engine) SetTies(ties map[netlist.NodeID]logic.V) {
	closeTies(e.c, ties, e.tieVal)
}

// closeTies writes the tie constants and their forward constant-propagation
// closure into dst (indexed by node, X everywhere else). It is the one tie
// installation routine shared by the scalar Engine and the packed scheduled
// runner, so both read identical constants.
func closeTies(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, dst []logic.V) {
	for i := range dst {
		dst[i] = logic.X
	}
	for n, v := range ties {
		dst[n] = v
	}
	if len(ties) == 0 {
		return
	}
	var buf [16]logic.V
	for _, id := range c.EvalOrder() {
		if dst[id] != logic.X {
			continue
		}
		fanin := c.Fanin(id)
		vals := buf[:0]
		if cap(vals) < len(fanin) {
			vals = make([]logic.V, 0, len(fanin))
		}
		any := false
		for _, p := range fanin {
			v := dst[p.Node]
			if p.Inv {
				v = v.Not()
			}
			if v != logic.X {
				any = true
			}
			vals = append(vals, v)
		}
		if !any {
			continue
		}
		dst[id] = logic.EvalSlice(c.Nodes[id].Op, vals)
	}
}

// val reads the current frame value of n, falling back to tie constants.
func (e *Engine) val(n netlist.NodeID) logic.V {
	if v := e.values[n]; v != logic.X {
		return v
	}
	return e.tieVal[n]
}

// Circuit returns the simulated circuit.
func (e *Engine) Circuit() *netlist.Circuit { return e.c }

// assign asserts node=v, records it, detects conflicts and queues fanout
// re-evaluation. It returns false on conflict.
func (e *Engine) assign(n netlist.NodeID, v logic.V, opt *Options) bool {
	if v == logic.X {
		return true
	}
	cur := e.values[n]
	if cur == v {
		return true
	}
	if tv := e.tieVal[n]; tv != logic.X {
		if tv != v {
			e.conflict = true
			e.conflictNode = n
			return false
		}
		// Asserting a value a tie constant already provides: read-through
		// covers it; keep the frame records free of constants.
		return true
	}
	if cur != logic.X {
		e.conflict = true
		e.conflictNode = n
		return false
	}
	e.values[n] = v
	e.touched = append(e.touched, n)
	for _, out := range e.c.Fanouts(n) {
		if e.c.Nodes[out].Kind == netlist.KindGate && !e.inQueue[out] {
			e.inQueue[out] = true
			e.queue = append(e.queue, out)
		}
	}
	for _, p := range opt.Equiv[n] {
		if !e.assign(p, v, opt) {
			return false
		}
	}
	return true
}

// settle runs event-driven evaluation to fixpoint. It returns false on
// conflict.
func (e *Engine) settle(opt *Options) bool {
	var ins [16]logic.V
	for len(e.queue) > 0 {
		n := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.inQueue[n] = false

		node := &e.c.Nodes[n]
		if node.Kind != netlist.KindGate {
			continue
		}
		fanin := e.c.Fanin(n)
		vals := ins[:0]
		if cap(vals) < len(fanin) {
			vals = make([]logic.V, 0, len(fanin))
		}
		for _, p := range fanin {
			v := e.val(p.Node)
			if p.Inv {
				v = v.Not()
			}
			vals = append(vals, v)
		}
		v := logic.EvalSlice(node.Op, vals)
		if v != logic.X {
			if !e.assign(n, v, opt) {
				return false
			}
		}
	}
	return true
}

// resetFrame clears every touched node back to X.
func (e *Engine) resetFrame() {
	for _, n := range e.touched {
		e.values[n] = logic.X
	}
	e.touched = e.touched[:0]
	for _, n := range e.queue {
		e.inQueue[n] = false
	}
	e.queue = e.queue[:0]
}

// Run performs a scheduled simulation with the given injections.
func (e *Engine) Run(inj []Injection, opt Options) Result {
	if opt.MaxFrames <= 0 {
		opt.MaxFrames = DefaultMaxFrames
	}
	// Stable frame-sort of the injections into reusable scratch;
	// within-frame order is preserved.
	e.injBuf = append(e.injBuf[:0], inj...)
	slices.SortStableFunc(e.injBuf, func(a, b Injection) int { return cmp.Compare(a.Frame, b.Frame) })
	maxInjFrame := 0
	if n := len(e.injBuf); n > 0 && e.injBuf[n-1].Frame > 0 {
		maxInjFrame = e.injBuf[n-1].Frame
	}
	injNext := 0

	var res Result
	e.conflict = false
	e.resetFrame()

	// state holds the sequential values entering the current frame, next
	// the gated captures leaving it; both live in the engine's reusable
	// double buffer and are always in dense Seqs-index order.
	state := e.stateA[:0]
	next := e.stateB[:0]
	defer func() { e.stateA, e.stateB = state, next }()

	for t := 0; t < opt.MaxFrames; t++ {
		// 1. Seed the frame: previous state and injections (tie constants
		// are read through permanently).
		ok := true
		for _, sa := range state {
			if !e.assign(e.c.Seqs[sa.seq], sa.val, &opt) {
				ok = false
				break
			}
		}
		if ok {
			for injNext < len(e.injBuf) && e.injBuf[injNext].Frame < t {
				injNext++ // unreachable frames (e.g. negative) are dropped
			}
			for injNext < len(e.injBuf) && e.injBuf[injNext].Frame == t {
				in := e.injBuf[injNext]
				injNext++
				if !e.assign(in.Node, in.Val, &opt) {
					ok = false
					break
				}
			}
		}
		// 2. Evaluate to fixpoint.
		if ok {
			ok = e.settle(&opt)
		}
		if !ok {
			res.Conflict = true
			res.ConflictNode = e.conflictNode
			res.ConflictFrame = t
			e.resetFrame()
			return res
		}

		// 3. Record the frame.
		frame := make(Frame, 0, len(e.touched))
		for _, n := range e.touched {
			frame = append(frame, Assign{Node: n, Val: e.values[n]})
		}
		slices.SortFunc(frame, func(a, b Assign) int { return cmp.Compare(a.Node, b.Node) })
		res.Frames = append(res.Frames, frame)

		// 4. Capture the next state with propagation gating (Seqs order, so
		// the list is sorted by construction).
		next = next[:0]
		for i, id := range e.c.Seqs {
			si := e.c.Nodes[id].Seq
			v := e.val(si.D.Node)
			if si.D.Inv {
				v = v.Not()
			}
			if v == logic.X {
				continue
			}
			mode := PropBoth
			if opt.PropModes != nil {
				mode = opt.PropModes[i]
			}
			switch mode {
			case PropNone:
				continue
			case Prop1Only:
				if v != logic.One {
					continue
				}
			case Prop0Only:
				if v != logic.Zero {
					continue
				}
			}
			next = append(next, seqAssign{seq: int32(i), val: v})
		}

		// 5. Early stop when the state repeats and no injections remain.
		// The state that entered this frame is last frame's capture, so
		// comparing next against it is the repeated-state test.
		if !opt.NoEarlyStop && t >= maxInjFrame && sameState(next, state) {
			res.StoppedEarly = true
			e.resetFrame()
			return res
		}

		state, next = next, state
		e.resetFrame()
		if len(state) == 0 && t >= maxInjFrame {
			// Nothing can change any more.
			res.StoppedEarly = true
			return res
		}
	}
	return res
}

func sameState(a, b []seqAssign) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PropModes derives the per-element propagation modes for learning on the
// given clock class (paper Section 3.3). A set/reset net is considered
// constrained when it is structurally constant 0: driven by a CONST0 gate,
// by a learned tied gate whose tie value makes the pin 0, or the inverted
// form of CONST1/tied-1.
//
// activeClass < 0 disables class gating (single-class learning).
func PropModes(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, activeClass int32) []PropMode {
	modes := make([]PropMode, len(c.Seqs))
	for i, id := range c.Seqs {
		si := c.Nodes[id].Seq
		if activeClass >= 0 && si.Class != activeClass {
			modes[i] = PropNone
			continue
		}
		if len(si.Ports) > 0 {
			modes[i] = PropNone // multi-port latch
			continue
		}
		set := si.HasSet() && !pinConst0(c, si.SetNet, ties)
		rst := si.HasReset() && !pinConst0(c, si.ResetNet, ties)
		switch {
		case set && rst:
			modes[i] = PropNone
		case set:
			modes[i] = Prop1Only
		case rst:
			modes[i] = Prop0Only
		default:
			modes[i] = PropBoth
		}
	}
	return modes
}

// pinConst0 reports whether the pin is structurally constant 0.
func pinConst0(c *netlist.Circuit, p netlist.Pin, ties map[netlist.NodeID]logic.V) bool {
	var v logic.V
	switch c.Nodes[p.Node].Op {
	case logic.OpConst0:
		v = logic.Zero
	case logic.OpConst1:
		v = logic.One
	default:
		if tv, ok := ties[p.Node]; ok {
			v = tv
		} else {
			return false
		}
	}
	if p.Inv {
		v = v.Not()
	}
	return v == logic.Zero
}

// FormatFrame renders a frame like the paper's Table 1 cells, e.g.
// "G6=0, G9=1", skipping the given nodes (typically the injected stem).
func FormatFrame(c *netlist.Circuit, f Frame, skip map[netlist.NodeID]bool) string {
	s := ""
	for _, a := range f {
		if skip[a.Node] {
			continue
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", c.NameOf(a.Node), a.Val)
	}
	if s == "" {
		return "{}"
	}
	return s
}
