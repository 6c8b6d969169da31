package imply

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Propagator is the single-frame implication engine (SOCRATES style) that
// combinational learning and the FIRES analysis share: forward evaluation,
// unique backward justification (AND/OR-family inputs and XOR/XNOR parity
// completion) and, given a snapshot, its same-frame implications of every
// assignment, run to a fixpoint.
//
// It settles the tie constants once into a base frame; each Run then
// injects one literal on top of that frame and undoes only what the
// previous injection touched. Every rule is monotone, so the fixpoint
// reached from the settled base equals the one reached by re-propagating
// every tie together with the injection, and a conflict arises in exactly
// the same runs.
//
// A Propagator is not safe for concurrent use; parallel sweeps build one
// per worker.
type Propagator struct {
	c       *netlist.Circuit
	db      *Snapshot // nil: no learned relations
	values  []logic.V
	touched []netlist.NodeID // nodes the current injection assigned
	queue   []netlist.NodeID
	inQueue []bool
	// baseImps lists the non-tie nodes the ties alone imply, with their
	// values; baseConflict records that the ties contradict each other, so
	// every injection fails.
	baseImps     []Lit
	baseConflict bool
	conflict     bool
}

// NewPropagator settles the ties (tieVal[n] != X, indexed by node) into
// the base frame. A non-nil db asserts its same-frame implications of
// every assigned literal.
func NewPropagator(c *netlist.Circuit, tieVal []logic.V, db *Snapshot) *Propagator {
	p := &Propagator{
		c:       c,
		db:      db,
		values:  make([]logic.V, c.NumNodes()),
		inQueue: make([]bool, c.NumNodes()),
	}
	for n, v := range tieVal {
		p.assign(netlist.NodeID(n), v)
	}
	p.settle()
	p.baseConflict = p.conflict
	for _, m := range p.touched {
		if tieVal[m] == logic.X {
			p.baseImps = append(p.baseImps, Lit{Node: m, Val: p.values[m]})
		}
	}
	p.touched = p.touched[:0]
	return p
}

// BaseConflict reports whether the ties contradict each other.
func (p *Propagator) BaseConflict() bool { return p.baseConflict }

// BaseImps returns the non-tie literals the ties alone imply, in discovery
// order. The slice is owned by the Propagator.
func (p *Propagator) BaseImps() []Lit { return p.baseImps }

// Values returns the current frame indexed by node: the settled base plus
// the last successful injection. It aliases the engine's state, so it is
// valid only until the next Run.
func (p *Propagator) Values() []logic.V { return p.values }

// Touched returns the nodes the last Run assigned, in discovery order. It
// aliases the engine's state, so it is valid only until the next Run.
func (p *Propagator) Touched() []netlist.NodeID { return p.touched }

// Run injects n=v into the settled base frame and propagates to a
// fixpoint; it reports false on conflict. The previous injection's
// assignments and any queue entries its conflict left are undone first.
func (p *Propagator) Run(n netlist.NodeID, v logic.V) bool {
	for _, m := range p.touched {
		p.values[m] = logic.X
	}
	p.touched = p.touched[:0]
	for _, m := range p.queue {
		p.inQueue[m] = false
	}
	p.queue = p.queue[:0]
	if p.baseConflict {
		return false
	}
	p.conflict = false
	p.assign(n, v)
	p.settle()
	return !p.conflict
}

func (p *Propagator) assign(n netlist.NodeID, v logic.V) {
	if v == logic.X || p.conflict {
		return
	}
	cur := p.values[n]
	if cur == v {
		return
	}
	if cur != logic.X {
		p.conflict = true
		return
	}
	p.values[n] = v
	p.touched = append(p.touched, n)
	p.enqueue(n)
	for _, out := range p.c.Fanouts(n) {
		if p.c.Nodes[out].Kind == netlist.KindGate {
			p.enqueue(out)
		}
	}
	if p.db != nil {
		for _, lit := range p.db.SameFrameImplied(Lit{Node: n, Val: v}) {
			p.assign(lit.Node, lit.Val)
		}
	}
}

func (p *Propagator) enqueue(n netlist.NodeID) {
	if !p.inQueue[n] && p.c.Nodes[n].Kind == netlist.KindGate {
		p.inQueue[n] = true
		p.queue = append(p.queue, n)
	}
}

func (p *Propagator) settle() {
	for len(p.queue) > 0 && !p.conflict {
		n := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.inQueue[n] = false
		p.forward(n)
		if !p.conflict {
			p.backward(n)
		}
	}
}

// pinVal reads a fanin pin value.
func (p *Propagator) pinVal(pin netlist.Pin) logic.V {
	v := p.values[pin.Node]
	if pin.Inv {
		v = v.Not()
	}
	return v
}

// forward evaluates gate n from its inputs.
func (p *Propagator) forward(n netlist.NodeID) {
	var buf [16]logic.V
	fanin := p.c.Fanin(n)
	vals := buf[:0]
	if cap(vals) < len(fanin) {
		vals = make([]logic.V, 0, len(fanin))
	}
	for _, pin := range fanin {
		vals = append(vals, p.pinVal(pin))
	}
	v := logic.EvalSlice(p.c.Nodes[n].Op, vals)
	if v != logic.X {
		p.assign(n, v)
	}
}

// backward applies unique justification: when gate n's output value leaves
// only one way to drive its inputs, those inputs are implied.
func (p *Propagator) backward(n netlist.NodeID) {
	out := p.values[n]
	if out == logic.X {
		return
	}
	nd := &p.c.Nodes[n]
	fanin := p.c.Fanin(n)

	assignPin := func(pin netlist.Pin, v logic.V) {
		if pin.Inv {
			v = v.Not()
		}
		p.assign(pin.Node, v)
	}

	switch nd.Op {
	case logic.OpBuf:
		assignPin(fanin[0], out)
	case logic.OpNot:
		assignPin(fanin[0], out.Not())
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		ctrl, _ := nd.Op.Controlling()
		nonCtrl := ctrl.Not()
		eff := out
		if nd.Op.Inverts() {
			eff = out.Not()
		}
		if eff == nonCtrl {
			// Every input must carry the non-controlling value.
			for _, pin := range fanin {
				assignPin(pin, nonCtrl)
			}
			return
		}
		// Output is the controlled value: if exactly one input is not yet
		// known non-controlling, it must be controlling.
		unknown := -1
		for i, pin := range fanin {
			v := p.pinVal(pin)
			if v == ctrl {
				return // already justified
			}
			if v == logic.X {
				if unknown >= 0 {
					return // more than one candidate: a decision, stop
				}
				unknown = i
			}
		}
		if unknown >= 0 {
			assignPin(fanin[unknown], ctrl)
		} else {
			p.conflict = true // all inputs non-controlling yet controlled output
		}
	case logic.OpXor, logic.OpXnor:
		// With the output and all inputs but one known, the last input is
		// the parity completion.
		parity := logic.Zero
		if out == logic.One {
			parity = logic.One
		}
		if nd.Op == logic.OpXnor {
			parity = parity.Not()
		}
		unknown := -1
		acc := logic.Zero
		for i, pin := range fanin {
			v := p.pinVal(pin)
			if v == logic.X {
				if unknown >= 0 {
					return
				}
				unknown = i
				continue
			}
			acc = logic.Xor(acc, v)
		}
		if unknown >= 0 {
			assignPin(fanin[unknown], logic.Xor(acc, parity))
		}
	}
}
