package netlist

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/logic"
)

// Builder constructs circuits incrementally, by name, with forward
// references allowed (a gate may use a net that is defined later, which
// netlist parsers and feedback paths through flip-flops require).
// Build validates and freezes the result.
type Builder struct {
	name string

	// nodes, pins and ids become the circuit's own tables in Build. A gate
	// pin whose net was not yet defined when the gate was holds
	// pendingNode(k) and is resolved by Build from pending[k].
	nodes   []Node
	pins    []Pin
	ids     map[string]NodeID
	pending []string
	// shared is set once Build has handed the tables to a circuit; the
	// builder copies them before it changes them again.
	shared bool

	seqs map[NodeID]*bSeq
	pos  []bPO
	errs []error
}

type Ref struct {
	ref string
	inv bool
	// node is the net's id plus one when the net was already defined as
	// the reference was made (RefBytes); 0 leaves the lookup to the
	// builder.
	node NodeID
}

type bSeq struct {
	d        Ref
	clock    Clock
	set, rst *Ref
	ports    []struct{ en, d Ref }
}

type bPO struct {
	name string
	pin  Ref
}

// pendingNode encodes index k of Builder.pending as a pin's node, below
// InvalidNode.
func pendingNode(k int) NodeID { return InvalidNode - 1 - NodeID(k) }

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, ids: make(map[string]NodeID), seqs: make(map[NodeID]*bSeq)}
}

// Grow makes room for nodes more nodes and pins more gate pins, so that a
// reader which can estimate its input's size does not regrow the builder.
func (b *Builder) Grow(nodes, pins int) {
	b.nodes = slices.Grow(b.nodes, nodes)
	b.pins = slices.Grow(b.pins, pins)
	if len(b.ids) == 0 {
		b.ids = make(map[string]NodeID, nodes)
	}
}

// own copies the tables Build handed to a circuit, so that the circuit
// stays as built.
func (b *Builder) own() {
	if b.shared {
		b.nodes = slices.Clone(b.nodes)
		b.pins = slices.Clone(b.pins)
		b.ids = maps.Clone(b.ids)
		b.shared = false
	}
}

// P names a pin reference; use N for an inverted reference.
func P(ref string) Ref { return Ref{ref: ref} }

// N names an inverted pin reference (a bubble on the pin).
func N(ref string) Ref { return Ref{ref: ref, inv: true} }

// RefBytes returns a pin reference to the net named by name, inverted when
// inv. A net that is already defined is resolved at once, with no copy of
// its name; any other name is copied and resolved later, like P and N.
// The reference is only valid for pins given to b.
func (b *Builder) RefBytes(name []byte, inv bool) Ref {
	if id, ok := b.ids[string(name)]; ok {
		return Ref{ref: b.nodes[id].Name, inv: inv, node: id + 1}
	}
	return Ref{ref: string(name), inv: inv}
}

// define adds the node, or on a second definition records the error and
// returns the first node's id, whose node the caller then overwrites
// (Build fails).
func (b *Builder) define(name string, kind Kind) NodeID {
	b.own()
	if first, ok := b.ids[name]; ok {
		b.errs = append(b.errs, fmt.Errorf("node %q defined twice", name))
		return first
	}
	id := NodeID(len(b.nodes))
	b.ids[name] = id
	at := int32(len(b.pins))
	b.nodes = append(b.nodes, Node{Name: name, Kind: kind, FaninStart: at, FaninEnd: at})
	return id
}

// PI declares a primary input.
func (b *Builder) PI(name string) {
	b.define(name, KindPI)
}

// Gate defines a combinational gate computing op over the given pins.
func (b *Builder) Gate(name string, op logic.Op, pins ...Ref) {
	n := &b.nodes[b.define(name, KindGate)]
	n.Op = op
	n.FaninStart = int32(len(b.pins))
	for _, p := range pins {
		b.pins = append(b.pins, b.pin(p))
	}
	n.FaninEnd = int32(len(b.pins))
	switch op {
	case logic.OpBuf, logic.OpNot:
		if len(pins) != 1 {
			b.errs = append(b.errs, fmt.Errorf("gate %q: %v requires exactly 1 input, got %d", name, op, len(pins)))
		}
	case logic.OpConst0, logic.OpConst1:
		if len(pins) != 0 {
			b.errs = append(b.errs, fmt.Errorf("gate %q: %v takes no inputs", name, op))
		}
	default:
		if len(pins) < 1 {
			b.errs = append(b.errs, fmt.Errorf("gate %q: %v requires inputs", name, op))
		}
	}
}

// pin resolves p if its net is defined by now, and otherwise queues its
// name for Build.
func (b *Builder) pin(p Ref) Pin {
	if p.node > 0 {
		return Pin{Node: p.node - 1, Inv: p.inv}
	}
	if id, ok := b.ids[p.ref]; ok {
		return Pin{Node: id, Inv: p.inv}
	}
	b.pending = append(b.pending, p.ref)
	return Pin{Node: pendingNode(len(b.pending) - 1), Inv: p.inv}
}

// DFF defines an edge-triggered flip-flop capturing pin d in the given
// clock domain/phase.
func (b *Builder) DFF(name string, d Ref, clk Clock) {
	b.seqs[b.define(name, KindDFF)] = &bSeq{d: d, clock: clk}
}

// Latch defines a level-sensitive latch capturing pin d.
func (b *Builder) Latch(name string, d Ref, clk Clock) {
	b.seqs[b.define(name, KindLatch)] = &bSeq{d: d, clock: clk}
}

// SetNet attaches an asynchronous set net to a previously defined
// sequential element.
func (b *Builder) SetNet(ff string, pin Ref) {
	if s := b.seqOf(ff, "SetNet"); s != nil {
		s.set = &pin
	}
}

// ResetNet attaches an asynchronous reset net to a previously defined
// sequential element.
func (b *Builder) ResetNet(ff string, pin Ref) {
	if s := b.seqOf(ff, "ResetNet"); s != nil {
		s.rst = &pin
	}
}

// AddPort adds an extra write port (enable, data) to a latch, making it a
// multi-port latch.
func (b *Builder) AddPort(ff string, enable, data Ref) {
	if s := b.seqOf(ff, "AddPort"); s != nil {
		s.ports = append(s.ports, struct{ en, d Ref }{enable, data})
	}
}

func (b *Builder) seqOf(name, opName string) *bSeq {
	id, ok := b.ids[name]
	s := b.seqs[id]
	if !ok || s == nil {
		b.errs = append(b.errs, fmt.Errorf("%s: %q is not a defined sequential element", opName, name))
		return nil
	}
	return s
}

// PO declares a primary output observing the given pin.
func (b *Builder) PO(name string, pin Ref) {
	b.pos = append(b.pos, bPO{name: name, pin: pin})
}

// resolve looks up a pin's net; the error names the pin as "<role> <name>"
// (e.g. "gate g1"), formatted only on failure.
func (b *Builder) resolve(p Ref, role, name string) (Pin, error) {
	if p.node > 0 {
		return Pin{Node: p.node - 1, Inv: p.inv}, nil
	}
	id, ok := b.ids[p.ref]
	if !ok {
		return Pin{Node: InvalidNode}, fmt.Errorf("%s%s references undefined net %q", role, name, p.ref)
	}
	return Pin{Node: id, Inv: p.inv}, nil
}

// Build validates the netlist and returns the frozen circuit. It fails if
// any net is undefined or multiply defined, a gate has the wrong arity, or
// the combinational logic contains a cycle. The circuit takes the
// builder's node, pin and name tables as its own.
func (b *Builder) Build() (*Circuit, error) {
	b.own()
	errs := append([]error(nil), b.errs...)
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	c := &Circuit{
		Name:   b.name,
		Nodes:  b.nodes,
		pins:   b.pins,
		byName: b.ids,
	}

	for id := range c.Nodes {
		n := &c.Nodes[id]
		for i := n.FaninStart; i < n.FaninEnd; i++ {
			if p := &c.pins[i]; p.Node < InvalidNode {
				rp, err := b.resolve(Ref{ref: b.pending[InvalidNode-1-p.Node], inv: p.Inv}, "gate ", n.Name)
				if err != nil {
					fail("%v", err)
					continue
				}
				*p = rp
			}
		}

		switch n.Kind {
		case KindPI:
			c.PIs = append(c.PIs, NodeID(id))
		case KindDFF, KindLatch:
			c.Seqs = append(c.Seqs, NodeID(id))
			bs := b.seqs[NodeID(id)]
			si := &SeqInfo{Clock: bs.clock, SetNet: Pin{Node: InvalidNode}, ResetNet: Pin{Node: InvalidNode}}
			d, err := b.resolve(bs.d, "element ", n.Name)
			if err != nil {
				fail("%v", err)
			}
			si.D = d
			if bs.set != nil {
				if p, err := b.resolve(*bs.set, "set of ", n.Name); err != nil {
					fail("%v", err)
				} else {
					si.SetNet = p
				}
			}
			if bs.rst != nil {
				if p, err := b.resolve(*bs.rst, "reset of ", n.Name); err != nil {
					fail("%v", err)
				} else {
					si.ResetNet = p
				}
			}
			for _, pt := range bs.ports {
				en, err1 := b.resolve(pt.en, "port enable of ", n.Name)
				d, err2 := b.resolve(pt.d, "port data of ", n.Name)
				if err1 != nil || err2 != nil {
					if err1 != nil {
						fail("%v", err1)
					}
					if err2 != nil {
						fail("%v", err2)
					}
					continue
				}
				si.Ports = append(si.Ports, Port{Enable: en, Data: d})
			}
			n.Seq = si
		}
	}

	for _, po := range b.pos {
		p, err := b.resolve(po.pin, "output ", po.name)
		if err != nil {
			fail("%v", err)
			continue
		}
		c.POs = append(c.POs, PO{Name: po.name, Pin: p})
	}

	if len(errs) > 0 {
		return nil, joinErrors(errs)
	}

	buildFanouts(c)
	if err := levelize(c); err != nil {
		return nil, err
	}
	assignClasses(c)
	b.shared = true
	return c, nil
}

// MustBuild is Build for hand-written circuits in tests and examples.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic("netlist: " + err.Error())
	}
	return c
}

func joinErrors(errs []error) error {
	if len(errs) == 1 {
		return errs[0]
	}
	msg := errs[0].Error()
	for _, e := range errs[1:min(len(errs), 8)] {
		msg += "; " + e.Error()
	}
	if len(errs) > 8 {
		msg += fmt.Sprintf("; (+%d more)", len(errs)-8)
	}
	return fmt.Errorf("%s", msg)
}

// sinkPins enumerates every pin through which node `sink` consumes values.
func sinkPins(c *Circuit, sink NodeID, visit func(src NodeID)) {
	n := &c.Nodes[sink]
	for _, p := range c.pins[n.FaninStart:n.FaninEnd] {
		visit(p.Node)
	}
	if n.Seq != nil {
		visit(n.Seq.D.Node)
		if n.Seq.HasSet() {
			visit(n.Seq.SetNet.Node)
		}
		if n.Seq.HasReset() {
			visit(n.Seq.ResetNet.Node)
		}
		for _, pt := range n.Seq.Ports {
			visit(pt.Enable.Node)
			visit(pt.Data.Node)
		}
	}
}

func buildFanouts(c *Circuit) {
	counts := make([]int32, len(c.Nodes))
	for id := range c.Nodes {
		sinkPins(c, NodeID(id), func(src NodeID) { counts[src]++ })
	}
	total := int32(0)
	for id := range c.Nodes {
		c.Nodes[id].FanoutStart = total
		total += counts[id]
		c.Nodes[id].FanoutEnd = c.Nodes[id].FanoutStart
	}
	c.fanouts = make([]NodeID, total)
	for id := range c.Nodes {
		sinkPins(c, NodeID(id), func(src NodeID) {
			s := &c.Nodes[src]
			c.fanouts[s.FanoutEnd] = NodeID(id)
			s.FanoutEnd++
		})
	}
}

// levelize computes combinational levels and the evaluation order, treating
// sequential outputs and PIs as sources. It reports combinational cycles.
func levelize(c *Circuit) error {
	// Kahn's algorithm over combinational fanin edges only: gate->gate
	// edges constrain order; PI/seq sources are immediately available.
	indeg := make([]int32, len(c.Nodes))
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.Kind != KindGate {
			indeg[id] = 0
			continue
		}
		d := int32(0)
		for _, p := range c.pins[n.FaninStart:n.FaninEnd] {
			if c.Nodes[p.Node].Kind == KindGate {
				d++
			}
		}
		indeg[id] = d
	}

	queue := make([]NodeID, 0, len(c.Nodes))
	for id := range c.Nodes {
		if c.Nodes[id].Kind == KindGate && indeg[id] == 0 {
			queue = append(queue, NodeID(id))
		}
	}
	order := make([]NodeID, 0, len(c.Nodes))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)

		n := &c.Nodes[id]
		lvl := int32(0)
		for _, p := range c.pins[n.FaninStart:n.FaninEnd] {
			if l := c.Nodes[p.Node].Level; l >= lvl {
				lvl = l + 1
			}
		}
		if n.FaninEnd == n.FaninStart {
			lvl = 0 // constant gate
		}
		n.Level = lvl

		for _, out := range c.Fanouts(id) {
			if c.Nodes[out].Kind != KindGate {
				continue
			}
			// Fanout lists carry one entry per consuming pin, so each
			// entry accounts for exactly one fanin edge.
			indeg[out]--
			if indeg[out] == 0 {
				queue = append(queue, NodeID(out))
				indeg[out] = -1 // guard against duplicate enqueue
			}
		}
	}

	gates := 0
	for id := range c.Nodes {
		if c.Nodes[id].Kind == KindGate {
			gates++
		}
	}
	if len(order) != gates {
		for id := range c.Nodes {
			if c.Nodes[id].Kind == KindGate && indeg[id] > 0 {
				return fmt.Errorf("combinational cycle through gate %q", c.Nodes[id].Name)
			}
		}
		return fmt.Errorf("combinational cycle detected")
	}
	c.evalOrder = order
	return nil
}

func assignClasses(c *Circuit) {
	type key struct {
		clk     Clock
		isLatch bool
	}
	idx := map[key]int32{}
	for _, id := range c.Seqs {
		n := &c.Nodes[id]
		k := key{clk: n.Seq.Clock, isLatch: n.Kind == KindLatch}
		cls, ok := idx[k]
		if !ok {
			cls = int32(len(c.classes))
			idx[k] = cls
			c.classes = append(c.classes, nil)
		}
		n.Seq.Class = cls
		c.classes[cls] = append(c.classes[cls], id)
	}
}
