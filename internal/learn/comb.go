package learn

import (
	"sync"
	"sync/atomic"

	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// injOut is the shard-private outcome of one injection: either a proven
// tie, or the implied literals in discovery order.
type injOut struct {
	tie  bool
	imps []imply.Lit
}

// CombinationalParallel runs classical static combinational learning
// (SOCRATES style, reference [1] of the paper): for every node and both
// values it injects the value into a single combinational frame and
// propagates it forward *and backward* (unique justification) to a
// fixpoint with imply.Propagator; everything assigned is an implication of
// the injection.
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
// The sweep is sharded over workers (0 = one per core, clamped like every
// other pool). Injections are independent — each runs from the same
// settled tie frame — so workers fill per-injection shards and a serial
// merge in canonical node order performs every db.Add and tie emission
// exactly as a serial sweep would: the resulting database and tie list are
// bit-identical for any worker count (TestCombinationalParallelDeterminism).
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
	sweep := func(p *imply.Propagator, i int) {
		n := nodes[i]
		for vi, v := range []logic.V{logic.Zero, logic.One} {
			o := &out[i][vi]
			if !p.Run(n, v) {
				// Injection impossible: n is combinationally tied to ¬v.
				o.tie = true
				continue
			}
			vals := p.Values()
			for _, m := range p.Touched() {
				if m != n && (c.IsSeq(n) || c.IsSeq(m)) {
					o.imps = append(o.imps, imply.Lit{Node: m, Val: vals[m]})
				}
			}
		}
	}

	workers = sim.ClampWorkers(workers)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	// Each worker settles the ties once into its own base frame.
	props := make([]*imply.Propagator, max(workers, 1))
	if len(props) == 1 {
		props[0] = imply.NewPropagator(c, tieVal, nil)
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
				p := imply.NewPropagator(c, tieVal, nil)
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
	baseImps := props[0].BaseImps()

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
