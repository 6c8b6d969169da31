package sim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// FuncSim is a functional three-valued simulator: set/reset nets actively
// force their elements, multi-port latches honor their write ports, and no
// learning-style gating is applied. It is the reference semantics against
// which learned relations are validated, and the machine underneath fault
// simulation.
//
// A FuncSim is not safe for concurrent use.
type FuncSim struct {
	c      *netlist.Circuit
	values []logic.V // current frame, indexed by node
	state  []logic.V // sequential outputs, indexed like c.Seqs

	// fault injection: when FaultNode >= 0 the node's output is forced.
	faultNode netlist.NodeID
	faultVal  logic.V
}

// NewFuncSim returns a functional simulator for c with an all-X state.
func NewFuncSim(c *netlist.Circuit) *FuncSim {
	return &FuncSim{
		c:         c,
		values:    make([]logic.V, c.NumNodes()),
		state:     make([]logic.V, len(c.Seqs)),
		faultNode: netlist.InvalidNode,
	}
}

// Clone returns an independent functional simulator over the same circuit
// with the current values, state and injected fault copied, for worker
// pools that fork mid-sequence (the fault simulator's worker clones each
// own one).
func (s *FuncSim) Clone() *FuncSim {
	n := NewFuncSim(s.c)
	copy(n.values, s.values)
	copy(n.state, s.state)
	n.faultNode, n.faultVal = s.faultNode, s.faultVal
	return n
}

// Reset sets the sequential state; init may be nil (all X) or indexed like
// Circuit.Seqs.
func (s *FuncSim) Reset(init []logic.V) {
	for i := range s.state {
		if init == nil {
			s.state[i] = logic.X
		} else {
			s.state[i] = init[i]
		}
	}
}

// SetFault forces the output of node n to v in every frame (a stuck-at
// fault). Pass InvalidNode to clear.
func (s *FuncSim) SetFault(n netlist.NodeID, v logic.V) {
	s.faultNode = n
	s.faultVal = v
}

// pin reads a pin in the current frame.
func (s *FuncSim) pin(p netlist.Pin) logic.V {
	v := s.values[p.Node]
	if p.Inv {
		v = v.Not()
	}
	return v
}

// Step evaluates one frame with the given primary input values (indexed
// like Circuit.PIs; nil means all X) and advances the sequential state.
func (s *FuncSim) Step(pis []logic.V) { s.StepPartial(pis, nil) }

// StepPartial is Step with per-element clock gating: sequential element i
// (indexed like Circuit.Seqs) captures only when update[i] is true; others
// hold their value. A nil update clocks everything. This models multiple
// clock domains advancing at different rates, which the per-class learning
// of paper Section 3.3.2 must stay sound under.
func (s *FuncSim) StepPartial(pis []logic.V, update []bool) {
	// Sources.
	for i := range s.values {
		s.values[i] = logic.X
	}
	for i, id := range s.c.PIs {
		if pis != nil {
			s.values[id] = pis[i]
		}
	}
	for i, id := range s.c.Seqs {
		s.values[id] = s.state[i]
	}
	if s.faultNode != netlist.InvalidNode {
		s.values[s.faultNode] = s.faultVal
	}

	// Combinational evaluation in topological order.
	var buf [16]logic.V
	for _, id := range s.c.EvalOrder() {
		if id == s.faultNode {
			continue // output forced
		}
		n := &s.c.Nodes[id]
		fanin := s.c.Fanin(id)
		vals := buf[:0]
		if cap(vals) < len(fanin) {
			vals = make([]logic.V, 0, len(fanin))
		}
		for _, p := range fanin {
			vals = append(vals, s.pin(p))
		}
		s.values[id] = logic.EvalSlice(n.Op, vals)
	}

	// State capture with functional set/reset and port semantics.
	for i, id := range s.c.Seqs {
		si := s.c.Nodes[id].Seq
		var q logic.V
		if update != nil && !update[i] {
			// Clock gated off this frame: hold. Asynchronous set/reset
			// below still applies — that is exactly why learning must
			// gate propagation across such elements (Section 3.3.3).
			q = s.state[i]
		} else {
			q = s.pin(si.D)
			// Extra write ports override the D input (last port wins).
			for _, pt := range si.Ports {
				en := s.pin(pt.Enable)
				d := s.pin(pt.Data)
				switch en {
				case logic.One:
					q = d
				case logic.X:
					if q != d {
						q = logic.X
					}
				}
			}
		}

		// Asynchronous reset then set (set has priority).
		if si.HasReset() {
			switch s.pin(si.ResetNet) {
			case logic.One:
				q = logic.Zero
			case logic.X:
				if q != logic.Zero {
					q = logic.X
				}
			}
		}
		if si.HasSet() {
			switch s.pin(si.SetNet) {
			case logic.One:
				q = logic.One
			case logic.X:
				if q != logic.One {
					q = logic.X
				}
			}
		}
		s.state[i] = q
	}
	// A faulted sequential element keeps its forced output.
	if s.faultNode != netlist.InvalidNode {
		if idx, ok := s.seqIdx(s.faultNode); ok {
			s.state[idx] = s.faultVal
		}
	}
}

func (s *FuncSim) seqIdx(n netlist.NodeID) (int, bool) {
	if !s.c.IsSeq(n) {
		return 0, false
	}
	for i, id := range s.c.Seqs {
		if id == n {
			return i, true
		}
	}
	return 0, false
}

// Value returns the value of node n in the last evaluated frame.
func (s *FuncSim) Value(n netlist.NodeID) logic.V { return s.values[n] }

// Output returns the value of primary output i in the last evaluated frame.
func (s *FuncSim) Output(i int) logic.V {
	po := s.c.POs[i]
	return s.pin(po.Pin)
}

// State returns the current sequential state (aliased; do not modify).
func (s *FuncSim) State() []logic.V { return s.state }
