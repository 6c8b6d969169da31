package fault

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Sim is an event-driven sequential fault simulator. It simulates the good
// machine once per test sequence and, per fault, propagates only the
// difference cone frame by frame, which is what makes post-ATPG fault
// dropping affordable.
//
// Detection is the standard conservative rule: a fault is detected when
// some primary output has a known good value and a known, different faulty
// value in some frame.
type Sim struct {
	c *netlist.Circuit

	// Good-machine caches, filled by LoadSequence or adopted read-only
	// from another Sim.
	vectors   [][]logic.V // PI values per frame
	goodVals  [][]logic.V // node values per frame
	goodState [][]logic.V // state per frame boundary (index 0 = initial)

	// good is the packed kernel the good-machine pass runs through (all
	// lanes broadcast): the compiled program's word ops replace the
	// per-gate scalar EvalSlice loop FuncSim would run. Reused across
	// loads.
	good *sim.PackedEngine

	// Faulty overlay with epoch stamps (no clearing between faults).
	faulty []logic.V
	stamp  []uint32
	cur    uint32

	// Level-bucketed worklist for in-frame propagation.
	buckets  [][]netlist.NodeID
	inQueue  []uint32 // stamp when last enqueued
	maxLevel int

	// poOf maps a node to the PO indices observing it: a dense slice
	// indexed by NodeID (no maps on the propagation path), immutable
	// after construction and shared across clones. poStamp/touchedPOs
	// track which POs carry an overlay value in the current frame so the
	// detection check visits only those.
	poOf       [][]int
	poStamp    []uint32
	touchedPOs []int
}

// NewSim returns a fault simulator for c.
func NewSim(c *netlist.Circuit) *Sim {
	maxLevel := 0
	for i := range c.Nodes {
		if l := int(c.Nodes[i].Level); l > maxLevel {
			maxLevel = l
		}
	}
	poOf := make([][]int, c.NumNodes())
	for i, po := range c.POs {
		poOf[po.Pin.Node] = append(poOf[po.Pin.Node], i)
	}
	return newSimWith(c, sim.NewPackedEngine(c), maxLevel, poOf)
}

// newSimWith builds a simulator around the shared immutable structure.
func newSimWith(c *netlist.Circuit, good *sim.PackedEngine, maxLevel int, poOf [][]int) *Sim {
	return &Sim{
		c:        c,
		good:     good,
		faulty:   make([]logic.V, c.NumNodes()),
		stamp:    make([]uint32, c.NumNodes()),
		inQueue:  make([]uint32, c.NumNodes()),
		buckets:  make([][]netlist.NodeID, maxLevel+1),
		maxLevel: maxLevel,
		poOf:     poOf,
		poStamp:  make([]uint32, len(c.POs)),
	}
}

// Clone returns an independent simulator for the same circuit: the
// immutable structure (circuit, PO index, compiled good-machine program) is
// shared, while the good-machine engine, caches and the faulty overlay are
// private to the clone. The clone starts with no loaded sequence.
func (s *Sim) Clone() *Sim {
	return newSimWith(s.c, s.good.Clone(), s.maxLevel, s.poOf)
}

// LoadSequence simulates the good machine over the vectors (PI values per
// frame) from the given initial state (nil = all X) and caches every frame.
// The pass runs through the packed three-valued kernel with all lanes
// broadcast; lane 0 is extracted into the scalar per-frame caches the
// event-driven difference propagation reads.
func (s *Sim) LoadSequence(vectors [][]logic.V, init []logic.V) {
	s.vectors = vectors
	s.goodVals = s.goodVals[:0]
	s.goodState = s.goodState[:0]
	e := s.good
	e.ResetBroadcast(init)
	s.goodState = append(s.goodState, e.LaneState(0, make([]logic.V, 0, len(s.c.Seqs))))
	for _, vec := range vectors {
		e.StepBroadcast(vec)
		s.goodVals = append(s.goodVals, e.LaneValues(0, make([]logic.V, 0, s.c.NumNodes())))
		s.goodState = append(s.goodState, e.LaneState(0, make([]logic.V, 0, len(s.c.Seqs))))
	}
}

// Frames returns the number of loaded frames.
func (s *Sim) Frames() int { return len(s.goodVals) }

// faultyVal reads the faulty value of n in the current frame overlay.
func (s *Sim) faultyVal(t int, n netlist.NodeID) logic.V {
	if s.stamp[n] == s.cur {
		return s.faulty[n]
	}
	return s.goodVals[t][n]
}

func (s *Sim) faultyPin(t int, p netlist.Pin) logic.V {
	v := s.faultyVal(t, p.Node)
	if p.Inv {
		v = v.Not()
	}
	return v
}

// setFaulty records a faulty value and schedules fanout evaluation.
func (s *Sim) setFaulty(t int, n netlist.NodeID, v logic.V) {
	if s.stamp[n] == s.cur && s.faulty[n] == v {
		return
	}
	if s.stamp[n] != s.cur {
		for _, pi := range s.poOf[n] {
			if s.poStamp[pi] != s.cur {
				s.poStamp[pi] = s.cur
				s.touchedPOs = append(s.touchedPOs, pi)
			}
		}
	}
	s.stamp[n] = s.cur
	s.faulty[n] = v
	for _, out := range s.c.Fanouts(n) {
		nd := &s.c.Nodes[out]
		if nd.Kind == netlist.KindGate && s.inQueue[out] != s.cur {
			s.inQueue[out] = s.cur
			s.buckets[nd.Level] = append(s.buckets[nd.Level], out)
		}
	}
}

// Detects simulates fault f against the loaded sequence and reports the
// first detecting frame.
func (s *Sim) Detects(f Fault) (bool, int) {
	// Sparse faulty state diff carried across frames: index into c.Seqs.
	stateDiff := map[int]logic.V{}

	for t := range s.vectors {
		s.cur++
		s.touchedPOs = s.touchedPOs[:0]
		for b := range s.buckets {
			s.buckets[b] = s.buckets[b][:0]
		}

		// Seed: carried state differences.
		for i, v := range stateDiff {
			s.setFaulty(t, s.c.Seqs[i], v)
		}
		// Seed: the fault site is forced every frame.
		s.setFaulty(t, f.Node, f.Stuck)

		// Propagate by level.
		for lvl := 0; lvl <= s.maxLevel; lvl++ {
			for qi := 0; qi < len(s.buckets[lvl]); qi++ {
				n := s.buckets[lvl][qi]
				if n == f.Node {
					continue // forced
				}
				nd := &s.c.Nodes[n]
				var buf [16]logic.V
				fanin := s.c.Fanin(n)
				vals := buf[:0]
				if cap(vals) < len(fanin) {
					vals = make([]logic.V, 0, len(fanin))
				}
				for _, p := range fanin {
					vals = append(vals, s.faultyPin(t, p))
				}
				v := logic.EvalSlice(nd.Op, vals)
				s.setFaulty(t, n, v)
			}
		}

		// Detection at the primary outputs whose nodes carry an overlay
		// value this frame (pin inversions cancel in the comparison).
		for _, pi := range s.touchedPOs {
			n := s.c.POs[pi].Pin.Node
			g := s.goodVals[t][n]
			fv := s.faulty[n]
			if g.Known() && fv.Known() && g != fv {
				return true, t
			}
		}

		// Next faulty state: recompute capture for every element whose
		// input cone was touched, plus keep the fault forced on a faulted
		// element.
		newDiff := map[int]logic.V{}
		for i, id := range s.c.Seqs {
			gv := s.goodState[t+1][i]
			var fv logic.V
			if id == f.Node {
				fv = f.Stuck
			} else if !s.captureTouched(id) {
				continue // inputs identical to good machine: no diff
			} else {
				fv = s.captureFaulty(t, id)
			}
			if fv != gv {
				newDiff[i] = fv
			}
		}
		stateDiff = newDiff
	}
	return false, -1
}

// captureTouched reports whether any input pin of the element carries a
// faulty overlay value this frame.
func (s *Sim) captureTouched(id netlist.NodeID) bool {
	si := s.c.Nodes[id].Seq
	if s.stamp[si.D.Node] == s.cur {
		return true
	}
	if si.HasSet() && s.stamp[si.SetNet.Node] == s.cur {
		return true
	}
	if si.HasReset() && s.stamp[si.ResetNet.Node] == s.cur {
		return true
	}
	for _, pt := range si.Ports {
		if s.stamp[pt.Enable.Node] == s.cur || s.stamp[pt.Data.Node] == s.cur {
			return true
		}
	}
	return false
}

// captureFaulty mirrors FuncSim's capture semantics over the faulty
// overlay.
func (s *Sim) captureFaulty(t int, id netlist.NodeID) logic.V {
	si := s.c.Nodes[id].Seq
	q := s.faultyPin(t, si.D)
	for _, pt := range si.Ports {
		en := s.faultyPin(t, pt.Enable)
		d := s.faultyPin(t, pt.Data)
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
		switch s.faultyPin(t, si.ResetNet) {
		case logic.One:
			q = logic.Zero
		case logic.X:
			if q != logic.Zero {
				q = logic.X
			}
		}
	}
	if si.HasSet() {
		switch s.faultyPin(t, si.SetNet) {
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

// Detection is the outcome of simulating one fault against a loaded
// sequence.
type Detection struct {
	Detected bool
	Frame    int // first detecting frame; -1 when undetected
}

// DetectAll simulates every fault against the loaded sequence and returns
// the per-fault outcomes in input order.
func (s *Sim) DetectAll(faults []Fault) []Detection {
	out := make([]Detection, len(faults))
	s.detectInto(out, faults, 0, len(faults))
	return out
}

// detectInto fills out[lo:hi] with the outcomes for faults[lo:hi] — the
// shard primitive underneath DetectAll and ParallelSim.
func (s *Sim) detectInto(out []Detection, faults []Fault, lo, hi int) {
	for i := lo; i < hi; i++ {
		ok, fr := s.Detects(faults[i])
		if !ok {
			fr = -1
		}
		out[i] = Detection{Detected: ok, Frame: fr}
	}
}
