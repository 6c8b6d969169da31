package learn

import (
	"sync"
	"sync/atomic"

	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Combinational runs classical static combinational learning (SOCRATES
// style, reference [1] of the paper): for every node and both values it
// injects the value into a single combinational frame and propagates it
// forward *and backward* (unique justification) to a fixpoint; everything
// assigned is an implication of the injection.
//
// This is the technique the paper contrasts with: it learns within one time
// frame only, but — unlike the forward-only sequential sweep — it derives
// backward implications. The paper's ATPG always uses its results ("all the
// ATPG experiments performed make use of combinational learning"), and
// Table 3 excludes everything it can learn, so running it both feeds the
// no-sequential-learning ATPG baseline and defines the comb/sequential
// split of the relation database.
//
// Relations are added to db with the combinational flag set (upgrading
// duplicates already learned sequentially); injections that conflict prove
// combinational ties, which are returned.
//
// Combinational runs the sweep serially; CombinationalParallel shards it.
func Combinational(c *netlist.Circuit, db *imply.DB, ties map[netlist.NodeID]logic.V) []Tie {
	return CombinationalParallel(c, db, ties, 1)
}

// injOut is the shard-private outcome of one injection: either a proven
// tie, or the implied literals in discovery order.
type injOut struct {
	tie  bool
	imps []imply.Lit
}

// CombinationalParallel is Combinational sharded over workers (0 = one per
// core, clamped like every other pool). Injections are independent — each
// runs from the same settled tie frame — so workers fill per-injection
// shards and a serial merge in canonical node order performs every db.Add
// and tie emission exactly as the serial sweep would: the resulting
// database and tie list are bit-identical for any worker count
// (TestCombinationalParallelDeterminism).
func CombinationalParallel(c *netlist.Circuit, db *imply.DB, ties map[netlist.NodeID]logic.V, workers int) []Tie {
	tieVal := make([]logic.V, c.NumNodes())
	for n, v := range ties {
		tieVal[n] = v
	}
	// Injection sites in canonical node order.
	var nodes []netlist.NodeID
	for id := range c.Nodes {
		if c.Nodes[id].Kind == netlist.KindPI {
			continue // PI injections yield only forward facts already cheap for ATPG
		}
		if tieVal[id] != logic.X {
			continue
		}
		nodes = append(nodes, netlist.NodeID(id))
	}

	out := make([][2]injOut, len(nodes))
	sweep := func(p *combProp, i int) {
		n := nodes[i]
		for vi, v := range []logic.V{logic.Zero, logic.One} {
			o := &out[i][vi]
			if !p.run(n, v) {
				// Injection impossible: n is combinationally tied to ¬v.
				o.tie = true
				continue
			}
			for _, m := range p.touched {
				if m != n && (c.IsSeq(n) || c.IsSeq(m)) {
					o.imps = append(o.imps, imply.Lit{Node: m, Val: p.values[m]})
				}
			}
		}
	}

	workers = sim.ClampWorkers(workers)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	// Each worker settles the ties once into its own base frame.
	props := make([]*combProp, max(workers, 1))
	if len(props) == 1 {
		props[0] = newCombProp(c, tieVal)
		for i := range nodes {
			sweep(props[0], i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := range props {
			go func() {
				defer wg.Done()
				p := newCombProp(c, tieVal)
				props[w] = p
				for {
					i := int(next.Add(1)) - 1
					if i >= len(nodes) {
						return
					}
					sweep(p, i)
				}
			}()
		}
		wg.Wait()
	}
	baseImps := props[0].baseImps

	// Deterministic merge in canonical order. Every injection also implies
	// the non-tie nodes the ties alone settle (baseImps): they sit in its
	// frame, as they did when each injection re-propagated the ties, and
	// learn_digests.txt records them.
	var newTies []Tie
	for i, n := range nodes {
		for vi, v := range []logic.V{logic.Zero, logic.One} {
			o := &out[i][vi]
			if o.tie {
				newTies = append(newTies, Tie{Node: n, Val: v.Not(), Frame: 0})
				continue
			}
			src := imply.Lit{Node: n, Val: v}
			for _, lit := range baseImps {
				if lit.Node != n && (c.IsSeq(n) || c.IsSeq(lit.Node)) {
					db.Add(src, lit, 0, true, 0)
				}
			}
			for _, lit := range o.imps {
				db.Add(src, lit, 0, true, 0)
			}
		}
		out[i] = [2]injOut{} // release as the merge advances
	}
	return newTies
}

// combProp is a single-frame forward+backward implication engine. It
// settles the tie constants once into a base frame; each run then injects
// one literal on top of that frame and undoes only what the injection
// touched. Forward evaluation and unique justification are monotone, so
// the fixpoint reached from the settled base equals the one reached by
// re-propagating every tie together with the injection.
type combProp struct {
	c       *netlist.Circuit
	values  []logic.V
	touched []netlist.NodeID // nodes the current injection assigned
	queue   []netlist.NodeID
	inQueue []bool
	// baseImps lists the non-tie nodes the ties alone imply, with their
	// values; baseConflict records that the ties contradict each other, so
	// every injection fails.
	baseImps     []imply.Lit
	baseConflict bool
	conflict     bool
}

// newCombProp settles the ties (tieVal[n] != X) into the base frame.
func newCombProp(c *netlist.Circuit, tieVal []logic.V) *combProp {
	p := &combProp{
		c:       c,
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
			p.baseImps = append(p.baseImps, imply.Lit{Node: m, Val: p.values[m]})
		}
	}
	p.touched = p.touched[:0]
	return p
}

// run injects n=v into the settled base frame and propagates to a
// fixpoint; it reports false on conflict. The previous injection's
// assignments and any queue entries its conflict left are undone first.
func (p *combProp) run(n netlist.NodeID, v logic.V) bool {
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

func (p *combProp) assign(n netlist.NodeID, v logic.V) {
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
}

func (p *combProp) enqueue(n netlist.NodeID) {
	if !p.inQueue[n] && p.c.Nodes[n].Kind == netlist.KindGate {
		p.inQueue[n] = true
		p.queue = append(p.queue, n)
	}
}

func (p *combProp) settle() {
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
func (p *combProp) pinVal(pin netlist.Pin) logic.V {
	v := p.values[pin.Node]
	if pin.Inv {
		v = v.Not()
	}
	return v
}

// forward evaluates gate n from its inputs.
func (p *combProp) forward(n netlist.NodeID) {
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
func (p *combProp) backward(n netlist.NodeID) {
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
