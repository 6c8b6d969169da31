// Package netlist defines the gate-level sequential circuit model shared by
// every engine in this repository: the simulators, the sequential learner,
// the fault machinery, the test generator and the redundancy identifier.
//
// A circuit is a set of nodes (primary inputs, combinational gates, D
// flip-flops and latches) connected through pins. Every pin may carry a
// local inversion "bubble", which the paper's Figure 1 requires (for
// example G3 = AND(I1, ¬I1)). Primary outputs are references to nodes, not
// nodes themselves, and therefore do not contribute to fanout-stem counts.
//
// Sequential elements carry the "real circuit" attributes from Section 3.3
// of the paper: a clock domain and phase (learning is performed per clock
// class), optional asynchronous set/reset nets whose constrained-ness gates
// value propagation during learning, and optional extra write ports that
// turn a latch into a multi-port latch (across which learning never
// propagates values).
package netlist

import (
	"fmt"

	"repro/internal/logic"
)

// NodeID identifies a node inside one Circuit. IDs are dense, starting at 0.
type NodeID int32

// InvalidNode is the out-of-band node identifier.
const InvalidNode NodeID = -1

// Kind classifies a node.
type Kind uint8

// Node kinds.
const (
	KindPI    Kind = iota // primary input
	KindGate              // combinational gate
	KindDFF               // edge-triggered flip-flop
	KindLatch             // level-sensitive latch
)

// String returns a short kind name.
func (k Kind) String() string {
	switch k {
	case KindPI:
		return "PI"
	case KindGate:
		return "GATE"
	case KindDFF:
		return "DFF"
	case KindLatch:
		return "LATCH"
	}
	return "?"
}

// Pin is a connection to the output of a node, optionally inverted.
type Pin struct {
	Node NodeID
	Inv  bool
}

// Clock names a clock domain and phase. Two sequential elements belong to
// the same learning class only if their Clock values are identical and they
// are the same element type (paper Section 3.3.2: a gated clock is a
// different clock; latches and flip-flops never share a class).
type Clock struct {
	Domain int32 // clock net identity (a gated clock gets its own domain)
	Phase  int8  // capturing phase/edge within the domain
}

// Port is an extra write port of a multi-port latch: when Enable evaluates
// to 1, Data is written, overriding the primary D input.
type Port struct {
	Enable Pin
	Data   Pin
}

// SeqInfo carries the sequential attributes of a DFF or latch node.
type SeqInfo struct {
	D     Pin   // primary data input
	Clock Clock // learning class key (with IsLatch)

	// SetNet/ResetNet, when valid, asynchronously force the element to
	// 1/0 whenever the net evaluates to 1. A set/reset is *unconstrained*
	// if its net is not provably constant 0; learning must then restrict
	// which values may propagate across the element (Section 3.3.3).
	SetNet   Pin
	ResetNet Pin

	// Ports are additional write ports; a non-empty slice makes the
	// element a multi-port latch for learning purposes (Section 3.3.1).
	Ports []Port

	// Class is the learning class index, assigned by Build.
	Class int32
}

// HasSet reports whether the element has a set net.
func (s *SeqInfo) HasSet() bool { return s.SetNet.Node != InvalidNode }

// HasReset reports whether the element has a reset net.
func (s *SeqInfo) HasReset() bool { return s.ResetNet.Node != InvalidNode }

// Node is one vertex of the circuit graph.
type Node struct {
	Name string
	Kind Kind
	Op   logic.Op // meaningful for KindGate only

	// Fanin pins are pins[FaninStart:FaninEnd] of the owning circuit.
	// For sequential nodes the fanin list is empty; their inputs are in
	// Seq (D, set/reset, ports).
	FaninStart, FaninEnd int32

	// Fanout references are fanouts[FanoutStart:FanoutEnd]. Fanout counts
	// every sink pin (gate inputs, FF data/set/reset/port pins) but not
	// primary outputs.
	FanoutStart, FanoutEnd int32

	// Level is the combinational depth: 0 for PIs, sequential outputs and
	// constant gates; 1+max(fanin level) otherwise.
	Level int32

	Seq *SeqInfo // non-nil for KindDFF and KindLatch
}

// PO is a primary output: a named, possibly inverted reference to a node.
type PO struct {
	Name string
	Pin  Pin
}

// Circuit is an immutable, validated gate-level sequential circuit.
// Construct one with a Builder.
type Circuit struct {
	Name string

	Nodes []Node
	POs   []PO

	PIs  []NodeID // in declaration order
	Seqs []NodeID // all DFFs and latches, in declaration order

	pins    []Pin    // flattened fanin lists
	fanouts []NodeID // flattened fanout lists (sink node ids)

	evalOrder []NodeID   // combinational nodes in topological order
	classes   [][]NodeID // sequential elements grouped by learning class

	byName map[string]NodeID
}

// NumNodes returns the total node count.
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// Fanin returns the fanin pins of node id (empty for PIs and sequential
// elements; use Seq for those). The returned slice aliases internal storage
// and must not be modified.
func (c *Circuit) Fanin(id NodeID) []Pin {
	n := &c.Nodes[id]
	return c.pins[n.FaninStart:n.FaninEnd]
}

// Fanouts returns the sink nodes fed by node id. The slice aliases internal
// storage and must not be modified.
func (c *Circuit) Fanouts(id NodeID) []NodeID {
	n := &c.Nodes[id]
	return c.fanouts[n.FanoutStart:n.FanoutEnd]
}

// FanoutCount returns the number of sink pins fed by node id.
func (c *Circuit) FanoutCount(id NodeID) int {
	n := &c.Nodes[id]
	return int(n.FanoutEnd - n.FanoutStart)
}

// IsStem reports whether node id is a fanout stem (more than one sink pin).
func (c *Circuit) IsStem(id NodeID) bool { return c.FanoutCount(id) > 1 }

// Stems returns all fanout stems in id order.
func (c *Circuit) Stems() []NodeID {
	var out []NodeID
	for id := range c.Nodes {
		if c.IsStem(NodeID(id)) {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// EvalOrder returns the combinational gates in topological order; evaluating
// them in this order after fixing PI and sequential-output values evaluates
// the full combinational frame. The slice must not be modified.
func (c *Circuit) EvalOrder() []NodeID { return c.evalOrder }

// Classes returns the sequential elements grouped by learning class. The
// outer slice index is the class number stored in SeqInfo.Class.
func (c *Circuit) Classes() [][]NodeID { return c.classes }

// Lookup returns the node with the given name.
func (c *Circuit) Lookup(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// MustLookup returns the node with the given name and panics if absent; it
// is intended for tests and examples working with hand-built circuits.
func (c *Circuit) MustLookup(name string) NodeID {
	id, ok := c.byName[name]
	if !ok {
		panic(fmt.Sprintf("netlist: no node named %q in %s", name, c.Name))
	}
	return id
}

// NameOf returns the node's name.
func (c *Circuit) NameOf(id NodeID) string { return c.Nodes[id].Name }

// IsSeq reports whether id is a sequential element.
func (c *Circuit) IsSeq(id NodeID) bool {
	k := c.Nodes[id].Kind
	return k == KindDFF || k == KindLatch
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	PIs, POs, Gates, DFFs, Latches, Stems, Classes int
	MaxLevel                                       int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	var s Stats
	s.PIs = len(c.PIs)
	s.POs = len(c.POs)
	s.Classes = len(c.classes)
	for id := range c.Nodes {
		n := &c.Nodes[id]
		switch n.Kind {
		case KindGate:
			s.Gates++
		case KindDFF:
			s.DFFs++
		case KindLatch:
			s.Latches++
		}
		if c.IsStem(NodeID(id)) {
			s.Stems++
		}
		if int(n.Level) > s.MaxLevel {
			s.MaxLevel = int(n.Level)
		}
	}
	return s
}

// String renders the statistics in one line.
func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d gates=%d dff=%d latch=%d stems=%d classes=%d depth=%d",
		s.PIs, s.POs, s.Gates, s.DFFs, s.Latches, s.Stems, s.Classes, s.MaxLevel)
}
