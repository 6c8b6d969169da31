package sim

import (
	"fmt"
	"math/bits"
	"reflect"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// This file gives PackedEngine the scheduled-run semantics of Engine: 64
// independent scheduled simulations — each with its own injection list and
// frame cap — advance together through one compiled-program sweep per
// frame. Per lane it reproduces Engine.Run exactly: tie constants read
// through (never recorded), value conflicts detected, equivalence partners
// asserted, propagation gated across sequential elements, and the
// repeated-state / dead-state early stop applied; a lane that conflicts,
// stops early or reaches its frame cap drops out of the active mask and the
// batch ends when the mask is empty. This is the kernel behind the packed
// learning sweeps (internal/learn), where every lane carries one stem or
// target injection of the paper's single- and multiple-node phases.
//
// The per-lane equivalence to Engine.Run rests on three facts:
//
//   - Three-valued evaluation is monotone, so the event-driven fixpoint
//     Engine.settle reaches is the unique least fixpoint; a topological
//     sweep over dirty gates (re-entered only when equivalence partners
//     assert values behind the sweep front) reaches the same one.
//   - A gate is swept only when one of its fanins was assigned — the same
//     condition under which Engine queues it — so gates that Engine never
//     evaluates (constants, tie-only cones, untouched logic) stay X here
//     too.
//   - Conflicts are order-independent booleans: Engine aborts at the first
//     contradictory assignment, the packed runner flags every lane whose
//     fixpoint contains one; both report a conflict in exactly the same
//     runs (ConflictNode, which depends on event order, is not reproduced).
//
// Like Engine.SetTies, the tie constants installed via SetTies must be
// consistent with their own constant-propagation closure (learned ties
// always are); inconsistent explicit ties could flag conflicts in lanes the
// event-driven engine never visits.

// LaneRun is one lane of a packed scheduled run: its injection schedule and
// an optional per-lane frame cap (0 uses Options.MaxFrames). CaptureLast
// asks the run to capture the lane's final frame (index cap-1) on the fly:
// when the run records that frame it snapshots the packed union of the
// capturing lanes into a CapturedGroup, so consumers that read exactly one
// frame per lane (the multiple-node learning sweep reads frame T with cap
// T+1) iterate the union once for all 64 lanes instead of extracting
// per-lane frames — and with NoFrameRecords they skip the full frame
// records entirely.
type LaneRun struct {
	Inj         []Injection
	MaxFrames   int
	CaptureLast bool
}

// CapturedGroup is the packed final frame shared by the CaptureLast lanes
// whose caps land on the same frame index: every node assigned in any of
// those lanes (Mask), sorted by id, with its packed value. A lane l in Mask
// reads its scalar frame as Vals[i].Get(l); lanes that conflicted or
// stopped before their final frame are absent from every group.
type CapturedGroup struct {
	Mask  uint64
	Nodes []netlist.NodeID
	Vals  []logic.PV
}

// packedFrame is one recorded frame shared by all lanes: a span of the
// result's node/value arenas holding the nodes assigned in any lane, sorted
// by id, with their packed values. Tie constants are read through and never
// appear, matching Engine's frame records.
type packedFrame struct {
	lo, hi int32
}

// ScheduledResult is the outcome of a packed scheduled run. Per-lane scalar
// results are extracted with Results; CaptureLast frames are read from
// CapturedGroups. All frame records share the two arenas, and the whole
// result — struct and arenas — is owned by the engine and recycled by its
// next RunScheduled call, so steady-state batch sweeps run allocation-free.
// Consumers must finish reading (or extract with Results, which copies)
// before running the engine again; CapturedGroups aliases the arenas and
// is likewise invalidated.
type ScheduledResult struct {
	frames    []packedFrame
	nodes     []netlist.NodeID
	vals      []logic.PV
	numFrames [logic.W]int32

	// CaptureLast snapshots: spans into capNodes/capVals, one per distinct
	// capture frame that some lane reached.
	capSpans []capSpan
	capNodes []netlist.NodeID
	capVals  []logic.PV

	// ConflictMask and StoppedEarlyMask hold the per-lane Result.Conflict
	// and Result.StoppedEarly bits.
	ConflictMask     uint64
	StoppedEarlyMask uint64

	// Lanes is the number of populated lanes.
	Lanes int
}

// NumFrames returns how many frames lane l recorded.
func (r *ScheduledResult) NumFrames(l int) int { return int(r.numFrames[l]) }

// capSpan is one capture event: the lanes captured and their span of the
// capNodes/capVals arenas.
type capSpan struct {
	mask   uint64
	lo, hi int32
}

// CapturedGroups returns the CaptureLast snapshots of the run, one group
// per distinct capture frame reached, in frame order.
func (r *ScheduledResult) CapturedGroups() []CapturedGroup {
	if len(r.capSpans) == 0 {
		return nil
	}
	out := make([]CapturedGroup, len(r.capSpans))
	for i, sp := range r.capSpans {
		out[i] = CapturedGroup{
			Mask:  sp.mask,
			Nodes: r.capNodes[sp.lo:sp.hi],
			Vals:  r.capVals[sp.lo:sp.hi],
		}
	}
	return out
}

// Results extracts every lane as a scalar Result in one bit-scatter pass
// over the frame records: each recorded (node, value) word is visited
// once, and its known bits are scattered straight into the per-lane frames
// with bits.TrailingZeros64, so the cost is linear in the number of scalar
// assignments — the same count the scalar engine records. All frames share
// one backing array. Lane l matches Engine.Run on its injections bit for
// bit, except that ConflictNode is not tracked (ConflictFrame is, and
// equals the number of recorded frames as in the scalar engine).
func (r *ScheduledResult) Results() []Result {
	out := make([]Result, r.Lanes)
	maxF := 0
	for l := 0; l < r.Lanes; l++ {
		bit := uint64(1) << uint(l)
		n := int(r.numFrames[l])
		if r.ConflictMask&bit != 0 {
			out[l].Conflict = true
			out[l].ConflictFrame = n
		}
		out[l].StoppedEarly = r.StoppedEarlyMask&bit != 0
		if n > maxF {
			maxF = n
		}
	}
	if maxF == 0 {
		return out
	}

	// live[t]: lanes whose result includes frame t. A lane that conflicted
	// or stopped in frame t keeps numFrames at t, so its residual bits in
	// the frame-t record must not be scattered.
	live := make([]uint64, maxF)
	for l := 0; l < r.Lanes; l++ {
		for t := 0; t < int(r.numFrames[l]); t++ {
			live[t] |= uint64(1) << uint(l)
		}
	}

	// Pass 1: count assignments per (lane, frame) to carve one arena.
	cnt := make([]int32, r.Lanes*maxF)
	for t := 0; t < maxF; t++ {
		pf := &r.frames[t]
		lm := live[t]
		for i := pf.lo; i < pf.hi; i++ {
			m := r.vals[i].Known() & lm
			for m != 0 {
				l := bits.TrailingZeros64(m)
				m &= m - 1
				cnt[l*maxF+t]++
			}
		}
	}
	total := 0
	for _, c := range cnt {
		total += int(c)
	}
	arena := make([]Assign, total)
	cur := make([]int32, r.Lanes*maxF) // per-(lane, frame) write cursor
	off := int32(0)
	for l := 0; l < r.Lanes; l++ {
		n := int(r.numFrames[l])
		if n == 0 {
			continue
		}
		out[l].Frames = make([]Frame, n)
		for t := 0; t < n; t++ {
			c := cnt[l*maxF+t]
			out[l].Frames[t] = arena[off : off+c]
			cur[l*maxF+t] = off
			off += c
		}
	}

	// Pass 2: scatter. Record nodes are sorted, so each lane's frame comes
	// out node-sorted, matching the scalar engine's frame order.
	for t := 0; t < maxF; t++ {
		pf := &r.frames[t]
		lm := live[t]
		for i := pf.lo; i < pf.hi; i++ {
			node := r.nodes[i]
			w := r.vals[i]
			m := w.Known() & lm
			for m != 0 {
				l := bits.TrailingZeros64(m)
				m &= m - 1
				v := logic.Zero
				if w.Ones&(uint64(1)<<uint(l)) != 0 {
					v = logic.One
				}
				k := cur[l*maxF+t]
				cur[l*maxF+t] = k + 1
				arena[k] = Assign{Node: node, Val: v}
			}
		}
	}
	return out
}

// schedInj is one scheduled injection with its target lane.
type schedInj struct {
	frame int32
	lane  uint8
	node  netlist.NodeID
	val   logic.V
}

// packedSched holds the scheduled-run scratch of a PackedEngine, allocated
// on first use so the functional Step path pays nothing for it.
type packedSched struct {
	// tieVal/base: tie constants closed under constant propagation
	// (closeTies), and the per-node packed baseline values (the broadcast
	// tie constant, or all-X). A run starts from base and resets back to
	// it, so tied nodes read through without per-pin branches.
	tieVal []logic.V
	base   []logic.PV

	// touchedW is a bitmap over nodes assigned since the last frame reset.
	// Scanning it word by word enumerates the touched nodes in ascending
	// id order, so frame records come out sorted without a per-frame sort.
	touchedW []uint64

	// dirtyW is a bitmap over prog gate indices: gates needing
	// (re-)evaluation this sweep. A bitmap instead of per-gate flags lets
	// the sweep skip clean regions 64 gates at a time, so late frames with
	// few active lanes cost almost nothing. The sweep clears every bit it
	// visits and mid-sweep marks only point forward, so the map is all
	// zero between frames — no per-frame clearing pass.
	dirtyW []uint64

	// eq is Options.Equiv flattened (tied sources dropped), so the
	// per-frame fixpoint never iterates the map. Assertion order is
	// immaterial: value merges are monotone and conflicts accumulate as an
	// order-independent OR, so any flattening order reaches the same
	// fixpoint. eqMap/eqLen identify the map the flattening came from —
	// batch sweeps reuse one Options value across many runs, so the rebuild
	// is skipped while the same (unmutated) map keeps arriving; SetTies and
	// CopyTies invalidate it because the tie filter changes.
	eq    []eqEdge
	eqMap reflect.Value
	eqLen int

	state, next []logic.PV // sequential double buffer, indexed like Seqs

	conflict uint64 // lanes that conflicted in the current frame
	changed  uint64 // lanes that gained a known bit since the last reset

	inj    []schedInj
	inj2   []schedInj // counting-sort scatter buffer for inj
	cntBuf []int32    // counting-sort bucket scratch

	// evInj[t]/evCap[t]: lanes whose injection horizon is frame t, and
	// lanes whose frame cap ends with frame t. Precomputing the per-frame
	// event masks keeps the frame loop free of per-lane scans.
	evInj []uint64
	evCap []uint64

	// clean reports that e.values equals base: the previous RunScheduled
	// ended with a frame reset and nothing dirtied the values since, so the
	// next run skips the wholesale baseline copy.
	clean bool

	// res is the recycled result: each run truncates the arenas in place,
	// so after warm-up a run appends into capacity the previous runs grew.
	res ScheduledResult
}

// eqEdge is one directed equivalence assertion: when src is known, its
// value is asserted on dst.
type eqEdge struct {
	src, dst netlist.NodeID
}

// ensureSched allocates the scheduled scratch.
func (e *PackedEngine) ensureSched() *packedSched {
	if e.sched == nil {
		n := e.c.NumNodes()
		e.sched = &packedSched{
			tieVal:   make([]logic.V, n),
			base:     make([]logic.PV, n),
			touchedW: make([]uint64, (n+63)/64),
			dirtyW:   make([]uint64, (len(e.prog.gates)+63)/64),
			state:    make([]logic.PV, len(e.c.Seqs)),
			next:     make([]logic.PV, len(e.c.Seqs)),
		}
	}
	return e.sched
}

// SetTies installs tied-gate constants for scheduled runs (nil clears
// them), closed under forward constant propagation exactly like
// Engine.SetTies. The constants apply to every lane.
func (e *PackedEngine) SetTies(ties map[netlist.NodeID]logic.V) {
	s := e.ensureSched()
	closeTies(e.c, ties, s.tieVal)
	for i, v := range s.tieVal {
		s.base[i] = logic.PVConst(v)
	}
	s.clean = false
	s.eqMap = reflect.Value{} // the tie filter over equivalence sources changed
}

// CopyTies copies the tie constants (with their closure) from src, which
// must simulate the same circuit — the cheap way to refresh a cloned worker
// pool after SetTies on one engine.
func (e *PackedEngine) CopyTies(src *PackedEngine) {
	if src.c != e.c {
		panic("sim: CopyTies across different circuits")
	}
	s := e.ensureSched()
	s.clean = false
	s.eqMap = reflect.Value{}
	if src.sched == nil {
		closeTies(e.c, nil, s.tieVal)
		for i := range s.base {
			s.base[i] = logic.PX
		}
		return
	}
	copy(s.tieVal, src.sched.tieVal)
	copy(s.base, src.sched.base)
}

// schedAssert asserts packed value v on node n in the lanes selected by
// mask: conflicts are flagged where a different known value (assigned or
// tie constant) is already present, and newly known lanes are recorded and
// their fanout gates marked for the next sweep. It is the packed mirror of
// Engine.assign (equivalence partners are cascaded separately, by the
// fixpoint in runScheduledFrame).
func (e *PackedEngine) schedAssert(n netlist.NodeID, v logic.PV, mask uint64) {
	s := e.sched
	known := v.Known() & mask
	if known == 0 {
		return
	}
	cur := e.values[n]
	s.conflict |= v.DiffKnown(cur) & known
	if s.tieVal[n] != logic.X {
		// Read-through covers it; keep the frame records free of constants.
		return
	}
	add := known &^ cur.Known()
	if add == 0 {
		return
	}
	s.touchedW[n>>6] |= 1 << uint(n&63)
	e.values[n] = logic.PV{
		Ones:  cur.Ones | v.Ones&add,
		Zeros: cur.Zeros | v.Zeros&add,
	}
	s.changed |= add
	for _, gi := range e.prog.foList[e.prog.foIdx[n]:e.prog.foIdx[n+1]] {
		s.dirtyW[gi>>6] |= 1 << uint(gi&63)
	}
}

// schedSweep evaluates every dirty gate in topological order, merging each
// output into the node's packed value with conflict detection, and marking
// fanout gates of newly known nodes dirty. Dirty marks created mid-sweep
// always point forward (fanouts are topologically later), so a single pass
// clears every mark; only equivalence assertions can re-dirty gates behind
// the front, handled by the caller's fixpoint loop.
func (e *PackedEngine) schedSweep() {
	s := e.sched
	vals := e.values
	for wi := 0; wi < len(s.dirtyW); wi++ {
		// The inner loop re-reads the word because evaluating a gate can
		// mark a fanout in the same word at a higher bit.
		for s.dirtyW[wi] != 0 {
			b := bits.TrailingZeros64(s.dirtyW[wi])
			s.dirtyW[wi] &^= 1 << uint(b)
			gi := wi<<6 + b
			g := &e.prog.gates[gi]
			pins := e.prog.pins[g.lo:g.hi]
			swaps := e.prog.pinSwap[g.lo:g.hi]
			var out logic.PV
			// Inverted fanins are read branchlessly: XOR-swapping Ones and
			// Zeros under the pin's swap mask (0 or ^0) is PV.Not without the
			// data-dependent branch on Pin.Inv.
			switch g.op {
			case logic.OpAnd, logic.OpNand:
				// Two-pin gates dominate the benchmark circuits; skipping the
				// accumulator loop for them is a measurable sweep win.
				if len(pins) == 2 {
					v0, v1 := vals[pins[0].Node], vals[pins[1].Node]
					t0 := (v0.Ones ^ v0.Zeros) & swaps[0]
					t1 := (v1.Ones ^ v1.Zeros) & swaps[1]
					out = logic.PV{
						Ones:  (v0.Ones ^ t0) & (v1.Ones ^ t1),
						Zeros: (v0.Zeros ^ t0) | (v1.Zeros ^ t1),
					}
				} else {
					out = logic.PV{Ones: ^uint64(0)}
					for pi, pin := range pins {
						v := vals[pin.Node]
						t := (v.Ones ^ v.Zeros) & swaps[pi]
						out.Ones &= v.Ones ^ t
						out.Zeros |= v.Zeros ^ t
					}
				}
				if g.op == logic.OpNand {
					out = out.Not()
				}
			case logic.OpOr, logic.OpNor:
				if len(pins) == 2 {
					v0, v1 := vals[pins[0].Node], vals[pins[1].Node]
					t0 := (v0.Ones ^ v0.Zeros) & swaps[0]
					t1 := (v1.Ones ^ v1.Zeros) & swaps[1]
					out = logic.PV{
						Ones:  (v0.Ones ^ t0) | (v1.Ones ^ t1),
						Zeros: (v0.Zeros ^ t0) & (v1.Zeros ^ t1),
					}
				} else {
					out = logic.PV{Zeros: ^uint64(0)}
					for pi, pin := range pins {
						v := vals[pin.Node]
						t := (v.Ones ^ v.Zeros) & swaps[pi]
						out.Ones |= v.Ones ^ t
						out.Zeros &= v.Zeros ^ t
					}
				}
				if g.op == logic.OpNor {
					out = out.Not()
				}
			case logic.OpXor, logic.OpXnor:
				known := ^uint64(0)
				parity := uint64(0)
				for pi, pin := range pins {
					v := vals[pin.Node]
					known &= v.Ones | v.Zeros
					parity ^= v.Ones ^ (v.Ones^v.Zeros)&swaps[pi]
				}
				out = logic.PV{Ones: parity & known, Zeros: ^parity & known}
				if g.op == logic.OpXnor {
					out = out.Not()
				}
			case logic.OpBuf:
				out = vals[pins[0].Node]
				if pins[0].Inv {
					out = out.Not()
				}
			case logic.OpNot:
				out = vals[pins[0].Node]
				if !pins[0].Inv {
					out = out.Not()
				}
			default:
				// Constant gates have no fanin edges, so they can never be
				// marked dirty — exactly like Engine, which never queues them.
				panic(fmt.Sprintf("sim: scheduled sweep of unexpected op %d", g.op))
			}
			n := g.node
			cur := vals[n]
			s.conflict |= out.DiffKnown(cur)
			if s.tieVal[n] != logic.X {
				continue
			}
			add := out.Known() &^ cur.Known()
			if add == 0 {
				continue
			}
			s.touchedW[n>>6] |= 1 << uint(n&63)
			vals[n] = logic.PV{
				Ones:  cur.Ones | out.Ones&add,
				Zeros: cur.Zeros | out.Zeros&add,
			}
			s.changed |= add
			for _, k := range e.prog.foList[e.prog.foIdx[n]:e.prog.foIdx[n+1]] {
				s.dirtyW[k>>6] |= 1 << uint(k&63)
			}
		}
	}
}

// schedApplyEquiv asserts every flattened equivalence edge whose source is
// known (idempotent, so re-running it over already processed values adds
// nothing). It reports whether any lane of the drive mask gained a value,
// in which case the caller must re-sweep.
func (e *PackedEngine) schedApplyEquiv(drive uint64) bool {
	s := e.sched
	s.changed = 0
	for _, ed := range s.eq {
		v := e.values[ed.src]
		if known := v.Known(); known != 0 {
			e.schedAssert(ed.dst, v, known)
		}
	}
	return s.changed&drive != 0
}

// RunScheduled performs up to 64 scheduled simulations in one packed
// batch, one per LaneRun. Options supplies the shared configuration
// (equivalence partners, propagation modes, the early-stop ablation and
// the default frame cap); each lane may override MaxFrames. Per lane the
// result is bit-identical to Engine.Run(lanes[l].Inj, opt) with the lane's
// cap — see ScheduledResult.Lane. The returned result is recycled by the
// engine's next RunScheduled call (see ScheduledResult).
func (e *PackedEngine) RunScheduled(lanes []LaneRun, opt Options) *ScheduledResult {
	if len(lanes) == 0 || len(lanes) > logic.W {
		panic(fmt.Sprintf("sim: RunScheduled with %d lanes", len(lanes)))
	}
	if opt.MaxFrames <= 0 {
		opt.MaxFrames = DefaultMaxFrames
	}
	s := e.ensureSched()
	res := &s.res
	*res = ScheduledResult{
		frames:   res.frames[:0],
		nodes:    res.nodes[:0],
		vals:     res.vals[:0],
		capSpans: res.capSpans[:0],
		capNodes: res.capNodes[:0],
		capVals:  res.capVals[:0],
		Lanes:    len(lanes),
	}

	// Per-lane caps, injection horizons, and the frame-grouped schedule
	// (stable sort keeps each lane's within-frame injection order).
	var caps, maxInj [logic.W]int32
	maxCap := int32(0)
	capReq := uint64(0)
	s.inj = s.inj[:0]
	for l, lr := range lanes {
		cp := int32(lr.MaxFrames)
		if cp <= 0 {
			cp = int32(opt.MaxFrames)
		}
		caps[l] = cp
		if cp > maxCap {
			maxCap = cp
		}
		if lr.CaptureLast {
			capReq |= uint64(1) << uint(l)
		}
		for _, in := range lr.Inj {
			if int32(in.Frame) > maxInj[l] {
				maxInj[l] = int32(in.Frame)
			}
			s.inj = append(s.inj, schedInj{
				frame: int32(in.Frame), lane: uint8(l), node: in.Node, val: in.Val,
			})
		}
	}
	// Stable-sort the schedule by frame with a counting scatter: frame
	// values are small (bounded by the injection horizon), so two linear
	// passes beat a comparison sort. Slot 0 collects negative (unreachable)
	// frames so they sort strictly before every frame-0 injection and the
	// schedule scan can drop them without splitting a frame group.
	maxInjAll := int32(0)
	for l := 0; l < len(lanes); l++ {
		if maxInj[l] > maxInjAll {
			maxInjAll = maxInj[l]
		}
	}
	slot := func(f int32) int32 {
		if f < 0 {
			return 0
		}
		return f + 1
	}
	if cap(s.cntBuf) < int(maxInjAll)+2 {
		s.cntBuf = make([]int32, maxInjAll+2)
	}
	cnt := s.cntBuf[:maxInjAll+2]
	for i := range cnt {
		cnt[i] = 0
	}
	for _, in := range s.inj {
		cnt[slot(in.frame)]++
	}
	off := int32(0)
	for i, c := range cnt {
		cnt[i] = off
		off += c
	}
	if cap(s.inj2) < len(s.inj) {
		s.inj2 = make([]schedInj, len(s.inj))
	}
	s.inj2 = s.inj2[:len(s.inj)]
	for _, in := range s.inj {
		k := slot(in.frame)
		s.inj2[cnt[k]] = in
		cnt[k]++
	}
	s.inj, s.inj2 = s.inj2, s.inj
	injNext := 0

	// Flatten the equivalence map: the per-frame fixpoint then walks a
	// contiguous edge list instead of re-iterating the map. Tie-constant
	// sources never cascade partners in Engine.assign, so they are dropped
	// here. The flattening is cached while the same map keeps arriving
	// (batch sweeps reuse one Options value across many runs); callers must
	// replace the map rather than mutate it in place between runs.
	mv := reflect.ValueOf(opt.Equiv)
	if !s.eqMap.IsValid() || s.eqMap.Pointer() != mv.Pointer() || s.eqLen != len(opt.Equiv) {
		s.eq = s.eq[:0]
		for n, partners := range opt.Equiv {
			if s.tieVal[n] != logic.X {
				continue
			}
			for _, p := range partners {
				s.eq = append(s.eq, eqEdge{src: n, dst: p})
			}
		}
		s.eqMap = mv
		s.eqLen = len(opt.Equiv)
	}

	activeMask := ^uint64(0)
	if len(lanes) < logic.W {
		activeMask = (uint64(1) << uint(len(lanes))) - 1
	}

	// Per-frame event masks: injection horizons crossed and caps ending.
	if cap(s.evInj) < int(maxCap) {
		s.evInj = make([]uint64, maxCap)
		s.evCap = make([]uint64, maxCap)
	}
	evInj := s.evInj[:maxCap]
	evCap := s.evCap[:maxCap]
	for i := range evInj {
		evInj[i] = 0
		evCap[i] = 0
	}
	for l := 0; l < len(lanes); l++ {
		if maxInj[l] < maxCap {
			evInj[maxInj[l]] |= uint64(1) << uint(l)
		}
		evCap[caps[l]-1] |= uint64(1) << uint(l)
	}
	pastInj := uint64(0)

	// Reset to the baseline unless the previous run already left the values
	// there (its final frame reset restores every touched node, and clean is
	// dropped whenever Step or a tie change dirties the words).
	if !s.clean {
		copy(e.values, s.base)
	}
	s.clean = true
	for i := range s.state {
		s.state[i] = logic.PX
	}

	for t := int32(0); t < maxCap && activeMask != 0; t++ {
		s.conflict = 0

		// 1. Seed the frame: previous state (dead lanes were cleared from
		// it) and this frame's injections for still-active lanes.
		for i, id := range e.c.Seqs {
			if st := s.state[i]; st.Known() != 0 {
				e.schedAssert(id, st, st.Known())
			}
		}
		for injNext < len(s.inj) && s.inj[injNext].frame < t {
			injNext++ // unreachable frames (e.g. negative) are dropped
		}
		for injNext < len(s.inj) && s.inj[injNext].frame == t {
			in := s.inj[injNext]
			injNext++
			e.schedAssert(in.node, logic.PVConst(in.val), (uint64(1)<<in.lane)&activeMask)
		}

		// 2. Evaluate to fixpoint. Without equivalence partners one
		// topological sweep settles everything; with them, re-sweep while
		// partner assertions keep adding values in lanes that still matter
		// (active and not conflicted this frame).
		e.schedSweep()
		for len(s.eq) > 0 && e.schedApplyEquiv(activeMask&^s.conflict) {
			e.schedSweep()
		}

		// 3. Retire conflicted lanes: frame t is not recorded for them,
		// matching the scalar engine's immediate return.
		newConf := s.conflict & activeMask
		res.ConflictMask |= newConf
		activeMask &^= newConf
		for m := newConf; m != 0; m &= m - 1 {
			res.numFrames[bits.TrailingZeros64(m)] = t // frame t not recorded
		}
		if activeMask == 0 {
			e.schedResetFrame()
			break
		}

		// 4. Record the frame for the lanes still running into the shared
		// arenas. Scanning the touched bitmap word by word yields the nodes
		// already sorted, so CaptureLast lanes whose final frame this is can
		// scatter their scalar assignments in the same pass. With
		// NoFrameRecords the scan runs only on frames some lane captures.
		cm := evCap[t] & capReq & activeMask
		if !opt.NoFrameRecords {
			lo := int32(len(res.nodes))
			for wi, w := range s.touchedW {
				base := netlist.NodeID(wi << 6)
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					n := base + netlist.NodeID(b)
					res.nodes = append(res.nodes, n)
					res.vals = append(res.vals, e.values[n])
				}
			}
			res.frames = append(res.frames, packedFrame{lo: lo, hi: int32(len(res.nodes))})
		}
		if cm != 0 {
			// Snapshot the packed union of the capturing lanes: one pass,
			// entries unknown in every capturing lane dropped. Consumers
			// bit-iterate the group once for all lanes.
			lo := int32(len(res.capNodes))
			for wi, w := range s.touchedW {
				base := netlist.NodeID(wi << 6)
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					n := base + netlist.NodeID(b)
					v := e.values[n]
					if v.Known()&cm == 0 {
						continue
					}
					res.capNodes = append(res.capNodes, n)
					res.capVals = append(res.capVals, v)
				}
			}
			res.capSpans = append(res.capSpans, capSpan{mask: cm, lo: lo, hi: int32(len(res.capNodes))})
		}
		// 5. Capture the next state with propagation gating, tracking the
		// repeated-state and dead-state masks as the packed mirror of the
		// scalar early-stop tests.
		eqMask := ^uint64(0)
		emptyMask := ^uint64(0)
		if opt.PropModes == nil {
			for i, id := range e.c.Seqs {
				si := e.c.Nodes[id].Seq
				v := e.values[si.D.Node]
				if si.D.Inv {
					v = v.Not()
				}
				prev := s.state[i]
				eqMask &= ^((v.Ones ^ prev.Ones) | (v.Zeros ^ prev.Zeros))
				emptyMask &= ^v.Known()
				s.next[i] = v
			}
		} else {
			for i, id := range e.c.Seqs {
				si := e.c.Nodes[id].Seq
				v := e.values[si.D.Node]
				if si.D.Inv {
					v = v.Not()
				}
				switch opt.PropModes[i] {
				case PropNone:
					v = logic.PX
				case Prop1Only:
					v = logic.PV{Ones: v.Ones}
				case Prop0Only:
					v = logic.PV{Zeros: v.Zeros}
				}
				prev := s.state[i]
				eqMask &= ^((v.Ones ^ prev.Ones) | (v.Zeros ^ prev.Zeros))
				emptyMask &= ^v.Known()
				s.next[i] = v
			}
		}

		// 6. Per-lane stopping: a lane past its injection horizon stops
		// when its implied state repeats (unless ablated) or dies out; a
		// lane at its frame cap simply ends. Retiring lanes recorded frame
		// t, so their frame count is fixed here.
		pastInj |= evInj[t]
		stop := emptyMask & pastInj
		if !opt.NoEarlyStop {
			stop |= eqMask & pastInj
		}
		stop &= activeMask
		res.StoppedEarlyMask |= stop
		retired := (stop | evCap[t]) & activeMask
		activeMask &^= retired
		for m := retired; m != 0; m &= m - 1 {
			res.numFrames[bits.TrailingZeros64(m)] = t + 1
		}

		// 7. Swap the state buffers, dropping dead lanes so they stop
		// seeding (their frames are already cut at numFrames).
		for i := range s.next {
			s.state[i] = logic.PV{
				Ones:  s.next[i].Ones & activeMask,
				Zeros: s.next[i].Zeros & activeMask,
			}
		}
		e.schedResetFrame()
	}
	return res
}

// schedResetFrame clears every touched node back to its baseline value and
// empties the touched bitmap.
func (e *PackedEngine) schedResetFrame() {
	s := e.sched
	for wi, w := range s.touchedW {
		if w == 0 {
			continue
		}
		s.touchedW[wi] = 0
		base := netlist.NodeID(wi << 6)
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			n := base + netlist.NodeID(b)
			e.values[n] = s.base[n]
		}
	}
}
