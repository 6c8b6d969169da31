// Package fault implements the single stuck-at fault model on node outputs,
// structural fault collapsing, and an event-driven sequential fault
// simulator with fault dropping — the machinery behind the ATPG driver and
// the paper's Table 4/Table 5 experiments.
//
// Modeling note: faults live on node outputs
// (primary inputs, gates, sequential elements). Fanout-branch and
// input-pin faults are not modeled separately; the collapsed universe is
// correspondingly smaller than the paper's per-line universe, which shifts
// absolute fault counts but not the comparisons the experiments make.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Fault is a stuck-at fault on the output of Node.
type Fault struct {
	Node  netlist.NodeID
	Stuck logic.V
}

// String renders e.g. "G9/1" for stuck-at-1 on G9 (name resolved by callers
// that have the circuit; this form uses the raw id).
func (f Fault) String() string { return fmt.Sprintf("n%d/%s", f.Node, f.Stuck) }

// Name renders the fault with the node's name, e.g. "G9 s-a-1".
func Name(c *netlist.Circuit, f Fault) string {
	return fmt.Sprintf("%s s-a-%s", c.NameOf(f.Node), f.Stuck)
}

// Universe returns every stuck-at fault on every node output, in
// deterministic order.
func Universe(c *netlist.Circuit) []Fault {
	out := make([]Fault, 0, 2*c.NumNodes())
	for id := range c.Nodes {
		out = append(out,
			Fault{Node: netlist.NodeID(id), Stuck: logic.Zero},
			Fault{Node: netlist.NodeID(id), Stuck: logic.One})
	}
	return out
}

// Collapse performs structural equivalence collapsing and returns the
// representative faults (deterministic order) plus the representative map.
//
// Rules: for a gate g with a fanin driver u that has no other fanout and
// drives no primary output,
//
//	BUF:  u s-a-v      ≡ g s-a-v
//	NOT:  u s-a-v      ≡ g s-a-¬v
//	AND:  u s-a-0      ≡ g s-a-0   (controlling in, controlled out)
//	NAND: u s-a-0      ≡ g s-a-1
//	OR:   u s-a-1      ≡ g s-a-1
//	NOR:  u s-a-1      ≡ g s-a-0
//
// with pin inversions folded into the stuck value on the driver side.
func Collapse(c *netlist.Circuit) ([]Fault, map[Fault]Fault) {
	parent := map[Fault]Fault{}
	var find func(f Fault) Fault
	find = func(f Fault) Fault {
		p, ok := parent[f]
		if !ok || p == f {
			return f
		}
		root := find(p)
		parent[f] = root
		return root
	}
	union := func(a, b Fault) {
		ra, rb := find(a), find(b)
		if ra != rb {
			// Prefer the smaller node id as representative (drivers come
			// first in common declaration orders; any deterministic pick
			// works).
			if rb.Node < ra.Node || (rb.Node == ra.Node && rb.Stuck < ra.Stuck) {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	// A primary output observes its driver directly, so the driver's
	// faults are not equivalent to those of its one gate fanout.
	isPO := make([]bool, c.NumNodes())
	for _, po := range c.POs {
		isPO[po.Pin.Node] = true
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		g := netlist.NodeID(id)
		fanin := c.Fanin(g)
		ctrl, hasCtrl := n.Op.Controlling()
		for _, pin := range fanin {
			if c.FanoutCount(pin.Node) != 1 || isPO[pin.Node] {
				continue // stems and PO drivers are not collapsed across
			}
			switch n.Op {
			case logic.OpBuf, logic.OpNot:
				for _, v := range []logic.V{logic.Zero, logic.One} {
					gv := v
					if pin.Inv {
						gv = gv.Not()
					}
					if n.Op == logic.OpNot {
						gv = gv.Not()
					}
					union(Fault{pin.Node, v}, Fault{g, gv})
				}
			case logic.OpAnd, logic.OpNand, logic.OpOr, logic.OpNor:
				if !hasCtrl {
					continue
				}
				// Driver stuck at the value that puts the controlling
				// value on the pin.
				uv := ctrl
				if pin.Inv {
					uv = uv.Not()
				}
				gv := n.Op.ControlledOutput()
				union(Fault{pin.Node, uv}, Fault{g, gv})
			}
		}
	}

	rep := map[Fault]Fault{}
	seen := map[Fault]bool{}
	var reps []Fault
	for _, f := range Universe(c) {
		r := find(f)
		rep[f] = r
		if !seen[r] {
			seen[r] = true
			reps = append(reps, r)
		}
	}
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].Node != reps[j].Node {
			return reps[i].Node < reps[j].Node
		}
		return reps[i].Stuck < reps[j].Stuck
	})
	return reps, rep
}
