package atpg

import (
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// arena is the reusable search state of one PODEM executor: the expanded
// model sized for the largest window, plus the decision stack. The serial
// driver, every parallel worker and every public Generate call own one
// each, so no arena is ever shared between goroutines. Between
// searches the arena is idle (see expanded), and generate leaves it idle.
type arena struct {
	e     *expanded
	stack []decision
}

// newArena allocates an idle arena with room for the largest of opt's
// windows; opt must be defaulted.
func newArena(c *netlist.Circuit, opt *Options) *arena {
	maxW := 0
	for _, w := range opt.Windows {
		maxW = max(maxW, w)
	}
	n := c.NumNodes()
	e := &expanded{
		c:       c,
		tainted: make([]bool, n),
		values:  make([][]logic.V5, maxW),
		forb:    make([][]uint8, maxW),
		queued:  make([][]bool, maxW),
	}
	vals := make([]logic.V5, maxW*n) // X5 is the zero value
	forb := make([]uint8, maxW*n)
	queued := make([]bool, maxW*n)
	for t := 0; t < maxW; t++ {
		e.values[t] = vals[t*n : (t+1)*n : (t+1)*n]
		e.forb[t] = forb[t*n : (t+1)*n : (t+1)*n]
		e.queued[t] = queued[t*n : (t+1)*n : (t+1)*n]
	}
	return &arena{e: e}
}

// generate runs PODEM for fault f over growing windows. opt must be
// defaulted, carry the relation index and list no window larger than the
// arena's. Once the trail, worklist and stack have grown to fit the
// executor's searches, only a detected search allocates: the emitted test.
func (a *arena) generate(f fault.Fault, opt *Options) Result {
	// Tie shortcut: a node tied to its stuck value is untestable (the
	// fault-free and faulty machines never differ).
	for _, tie := range opt.Ties {
		if tie.Node == f.Node && tie.Val == f.Stuck {
			return Result{Outcome: Untestable}
		}
	}

	a.e.setFault(f, opt)
	res := Result{Outcome: Untestable}
	for _, w := range opt.Windows {
		a.e.w = w
		p := podem{c: a.e.c, f: f, e: a.e, limit: opt.BacktrackLimit, fillSeed: opt.FillSeed, stack: a.stack[:0]}
		out := p.search()
		a.stack = p.stack[:0]
		res.Backtracks += p.backtracks
		switch out {
		case Detected:
			res.Outcome = Detected
			res.Window = w
			res.Test = p.extractTest()
		case Aborted:
			// Not proven for this window: the overall claim degrades.
			res.Outcome = Aborted
		case Untestable:
			// Exhausted this window; keep trying larger ones.
		}
		a.e.rollback(0)
		if out == Detected {
			return res
		}
	}
	return res
}

// podem performs the branch-and-bound search over one window of an arena's
// expanded model. Decisions are primary-input assignments (frame, PI,
// value); everything else follows by implication. The search is complete
// for the window: if it finishes without hitting the backtrack limit and
// without a test, no test with that many frames exists under the
// unknown-initial-state semantics.
type podem struct {
	c        *netlist.Circuit
	f        fault.Fault
	e        *expanded
	limit    int    // Options.BacktrackLimit
	fillSeed uint64 // Options.FillSeed

	stack      []decision
	backtracks int
}

type decision struct {
	at      fnode
	val     logic.V
	flipped bool
	mark    int
}

// search runs the PODEM loop and classifies the window.
func (p *podem) search() Outcome {
	if !p.e.init() {
		// Ties alone conflict with the fault: nothing to search.
		return Untestable
	}
	for {
		if p.e.detected() {
			return Detected
		}
		assigned := false
		if at, v, ok := p.nextObjective(); ok {
			p.stack = append(p.stack, decision{at: at, val: v, mark: p.e.mark()})
			assigned = p.e.assignPI(at, v)
		}
		if assigned {
			continue
		}
		// Dead end: either no objective is left or the assignment
		// conflicted. Backtrack.
		for {
			if len(p.stack) == 0 {
				return Untestable // window search space exhausted
			}
			top := &p.stack[len(p.stack)-1]
			p.e.rollback(top.mark)
			if top.flipped {
				p.stack = p.stack[:len(p.stack)-1]
				continue
			}
			p.backtracks++
			if p.backtracks > p.limit {
				return Aborted
			}
			top.flipped = true
			top.val = top.val.Not()
			if p.e.assignPI(top.at, top.val) {
				break
			}
			// Flip conflicted too: pop and keep unwinding.
		}
	}
}

// nextObjective picks an activation or propagation objective and backtraces
// it to an unassigned primary input decision.
func (p *podem) nextObjective() (fnode, logic.V, bool) {
	if len(p.e.dfront) == 0 {
		// Activation: good value ¬stuck on the fault site in some frame.
		want := p.f.Stuck.Not()
		for t := 0; t < p.e.w; t++ {
			v := p.e.values[t][p.f.Node]
			if v != logic.X5 {
				continue
			}
			if at, val, ok := p.backtrace(fnode{t, p.f.Node}, want); ok {
				return at, val, true
			}
		}
		return fnode{}, logic.X, false
	}
	// Propagation: D-frontier gates (output X, some input faulted), in
	// the order their faulted inputs were assigned.
	for _, i := range p.e.dfront {
		src := p.e.trail[i].at
		for _, out := range p.c.Fanouts(src.n) {
			nd := &p.c.Nodes[out]
			if nd.Kind != netlist.KindGate {
				continue
			}
			at := fnode{src.t, out}
			if p.e.values[at.t][at.n] != logic.X5 {
				continue
			}
			if obj, val, ok := p.frontierObjective(at); ok {
				return obj, val, true
			}
		}
	}
	return fnode{}, logic.X, false
}

// frontierObjective tries to set one X side-input of a D-frontier gate to
// its non-controlling value.
func (p *podem) frontierObjective(at fnode) (fnode, logic.V, bool) {
	nd := &p.c.Nodes[at.n]
	ctrl, hasCtrl := nd.Op.Controlling()
	want := logic.Zero
	if hasCtrl {
		want = ctrl.Not()
	}
	for _, pin := range p.c.Fanin(at.n) {
		if p.e.values[at.t][pin.Node] != logic.X5 {
			continue
		}
		v := want
		if pin.Inv {
			v = v.Not()
		}
		if obj, val, ok := p.backtrace(fnode{at.t, pin.Node}, v); ok {
			return obj, val, true
		}
	}
	return fnode{}, logic.X, false
}

// backtrace walks an objective (node, frame, good value) backward through
// X-valued nodes to an unassigned primary input; it crosses flip-flops into
// earlier frames and fails at the unknown initial state. In forbidden-value
// mode the input "with the forbidden non-controlling value" is preferred
// when justifying a controlled output (paper Section 4).
func (p *podem) backtrace(at fnode, v logic.V) (fnode, logic.V, bool) {
	for guard := 0; guard < 4*p.e.w*(p.c.NumNodes()+1); guard++ {
		nd := &p.c.Nodes[at.n]
		switch nd.Kind {
		case netlist.KindPI:
			if p.e.values[at.t][at.n] != logic.X5 {
				return fnode{}, logic.X, false
			}
			return at, v, true
		case netlist.KindDFF, netlist.KindLatch:
			if at.t == 0 {
				return fnode{}, logic.X, false // uncontrollable initial state
			}
			pin := nd.Seq.D
			if pin.Inv {
				v = v.Not()
			}
			at = fnode{at.t - 1, pin.Node}
		case netlist.KindGate:
			if p.e.values[at.t][at.n] != logic.X5 {
				return fnode{}, logic.X, false
			}
			pin, nv, ok := p.chooseInput(at, nd, v)
			if !ok {
				return fnode{}, logic.X, false
			}
			at = fnode{at.t, pin.Node}
			v = nv
		default:
			return fnode{}, logic.X, false
		}
	}
	return fnode{}, logic.X, false
}

// chooseInput maps a desired gate output value to one input objective.
func (p *podem) chooseInput(at fnode, nd *netlist.Node, v logic.V) (netlist.Pin, logic.V, bool) {
	fanin := p.c.Fanin(at.n)
	switch nd.Op {
	case logic.OpBuf:
		return fanin[0], pinVal(fanin[0], v), true
	case logic.OpNot:
		return fanin[0], pinVal(fanin[0], v.Not()), true
	case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
		ctrl, _ := nd.Op.Controlling()
		eff := v
		if nd.Op.Inverts() {
			eff = eff.Not()
		}
		if eff == ctrl.Not() {
			// All inputs must be non-controlling: pick any X input.
			for _, pin := range fanin {
				if p.e.values[at.t][pin.Node] == logic.X5 {
					return pin, pinVal(pin, ctrl.Not()), true
				}
			}
			return netlist.Pin{}, logic.X, false
		}
		// One input must be controlling: prefer the input whose
		// forbidden mark says it cannot take the non-controlling value.
		var fallback *netlist.Pin
		for i := range fanin {
			pin := fanin[i]
			if p.e.values[at.t][pin.Node] != logic.X5 {
				continue
			}
			if fallback == nil {
				fallback = &fanin[i]
			}
			if p.e.mode == ModeForbidden {
				needed := pinVal(pin, ctrl) // value on the driver
				bit := uint8(1)
				if needed == logic.Zero {
					bit = 2 // driver must not be 1 => must be 0
				}
				if p.e.forb[at.t][pin.Node]&bit != 0 {
					return pin, needed, true
				}
			}
		}
		if fallback != nil {
			return *fallback, pinVal(*fallback, ctrl), true
		}
		return netlist.Pin{}, logic.X, false
	case logic.OpXor, logic.OpXnor:
		acc := v
		if nd.Op == logic.OpXnor {
			acc = acc.Not()
		}
		var pick *netlist.Pin
		for i := range fanin {
			pin := fanin[i]
			pv := p.e.values[at.t][pin.Node]
			if pv == logic.X5 {
				if pick == nil {
					pick = &fanin[i]
				}
				continue
			}
			if g := pv.Good(); g.Known() {
				gv := g
				if pin.Inv {
					gv = gv.Not()
				}
				acc = logic.Xor(acc, gv)
			} else {
				return netlist.Pin{}, logic.X, false
			}
		}
		if pick == nil || !acc.Known() {
			return netlist.Pin{}, logic.X, false
		}
		return *pick, pinVal(*pick, acc), true
	}
	return netlist.Pin{}, logic.X, false
}

// pinVal folds a pin inversion into the desired driver value.
func pinVal(p netlist.Pin, v logic.V) logic.V {
	if p.Inv {
		return v.Not()
	}
	return v
}

// extractTest reads the assigned PI values per frame, randomly filling the
// unassigned ones when a fill seed is configured.
func (p *podem) extractTest() [][]logic.V {
	var r *logic.Rand64
	if p.fillSeed != 0 {
		r = logic.NewRand64(p.fillSeed)
	}
	test := make([][]logic.V, p.e.w)
	for t := 0; t < p.e.w; t++ {
		vec := make([]logic.V, len(p.c.PIs))
		for i, pi := range p.c.PIs {
			g := p.e.values[t][pi].Good()
			if !g.Known() && r != nil {
				g = logic.FromBool(r.Bool())
			}
			vec[i] = g
		}
		test[t] = vec
	}
	return test
}
