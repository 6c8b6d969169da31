package equiv

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// mapVerifier is the reference verifier: node words in a map cleared for
// every 64-lane block, every tie written into it again for each block.
type mapVerifier struct {
	c          *netlist.Circuit
	ties       map[netlist.NodeID]logic.V
	maxSupport int

	words map[netlist.NodeID]uint64
}

func (v *mapVerifier) cone(a, b netlist.NodeID) (support, order []netlist.NodeID, ok bool) {
	visited := map[netlist.NodeID]bool{}
	var gates []netlist.NodeID
	var walk func(n netlist.NodeID) bool
	walk = func(n netlist.NodeID) bool {
		if visited[n] {
			return true
		}
		visited[n] = true
		if _, tied := v.ties[n]; tied {
			return true
		}
		if v.c.Nodes[n].Kind != netlist.KindGate {
			support = append(support, n)
			return len(support) <= v.maxSupport
		}
		for _, p := range v.c.Fanin(n) {
			if !walk(p.Node) {
				return false
			}
		}
		gates = append(gates, n)
		return true
	}
	if !walk(a) || !walk(b) {
		return nil, nil, false
	}
	return support, gates, true
}

func (v *mapVerifier) equal(a, b netlist.NodeID) bool {
	support, order, ok := v.cone(a, b)
	if !ok {
		return false
	}
	total := uint64(1) << uint(len(support))
	for base := uint64(0); base < total; base += logic.W {
		v.words = map[netlist.NodeID]uint64{}
		for bit, in := range support {
			var w uint64
			for l := uint64(0); l < logic.W && base+l < total; l++ {
				if (base+l)>>uint(bit)&1 == 1 {
					w |= 1 << l
				}
			}
			v.words[in] = w
		}
		for tn, tv := range v.ties {
			if tv == logic.One {
				v.words[tn] = ^uint64(0)
			} else {
				v.words[tn] = 0
			}
		}
		for _, id := range order {
			var vals []uint64
			for _, p := range v.c.Fanin(id) {
				w := v.words[p.Node]
				if p.Inv {
					w = ^w
				}
				vals = append(vals, w)
			}
			v.words[id] = logic.BEvalSlice(v.c.Nodes[id].Op, vals)
		}
		wa, wb := v.words[a], v.words[b]
		mask := ^uint64(0)
		if total-base < logic.W {
			mask = (uint64(1) << (total - base)) - 1
		}
		if (wa^wb)&mask != 0 {
			return false
		}
	}
	return true
}

// randEquivCircuit builds a random combinational-plus-flip-flop circuit in
// which many gates copy, complement or re-express an earlier gate, so
// signature classes are plentiful, and some gates differ from an earlier
// one only through an input a tie can make constant.
func randEquivCircuit(seed uint64, nPIs, nGates, nFFs int) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("eqrand%d", seed))
	var names []string
	for i := range nPIs {
		names = append(names, fmt.Sprintf("i%d", i))
		b.PI(names[i])
	}
	for i := range nFFs {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ref := func(name string) netlist.Ref {
		if r.Intn(4) == 0 {
			return netlist.N(name)
		}
		return netlist.P(name)
	}
	type gate struct {
		op   logic.Op
		refs []netlist.Ref
	}
	var gates []gate
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNand, logic.OpNor, logic.OpXor, logic.OpXnor}
	complement := map[logic.Op]logic.Op{
		logic.OpAnd: logic.OpNand, logic.OpNand: logic.OpAnd,
		logic.OpOr: logic.OpNor, logic.OpNor: logic.OpOr,
		logic.OpXor: logic.OpXnor, logic.OpXnor: logic.OpXor,
		logic.OpBuf: logic.OpNot, logic.OpNot: logic.OpBuf,
	}
	for i := range nGates {
		var g gate
		switch k := r.Intn(8); {
		case k == 0 && len(gates) > 0: // a copy with its inputs reversed
			src := gates[r.Intn(len(gates))]
			g.op = src.op
			for j := len(src.refs) - 1; j >= 0; j-- {
				g.refs = append(g.refs, src.refs[j])
			}
		case k == 1 && len(gates) > 0: // a complement
			src := gates[r.Intn(len(gates))]
			g = gate{op: complement[src.op], refs: src.refs}
		case k == 2 && len(gates) > 0: // a buffer or inverter of a gate
			g = gate{op: logic.OpBuf, refs: []netlist.Ref{ref(fmt.Sprintf("g%d", r.Intn(len(gates))))}}
			if r.Bool() {
				g.op = logic.OpNot
			}
		case k == 3 && len(gates) > 0: // a gate plus a side input a tie can mask
			src := fmt.Sprintf("g%d", r.Intn(len(gates)))
			g = gate{op: logic.OpOr, refs: []netlist.Ref{netlist.P(src), ref(names[r.Intn(len(names))])}}
			if r.Bool() {
				g.op = logic.OpAnd
			}
		default:
			g.op = ops[r.Intn(len(ops))]
			for range 2 + r.Intn(2) {
				g.refs = append(g.refs, ref(names[r.Intn(len(names))]))
			}
		}
		gates = append(gates, g)
		name := fmt.Sprintf("g%d", i)
		b.Gate(name, g.op, g.refs...)
		names = append(names, name)
	}
	for i := range nFFs {
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(fmt.Sprintf("g%d", r.Intn(nGates))), netlist.Clock{})
	}
	for i := range 4 {
		b.PO(fmt.Sprintf("o%d", i), netlist.P(fmt.Sprintf("g%d", nGates-1-i)))
	}
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// randTies ties a random subset of nodes (gates, inputs and flip-flops)
// to random constants; percent is the share of nodes tied.
func randTies(c *netlist.Circuit, seed uint64, percent int) map[netlist.NodeID]logic.V {
	r := logic.NewRand64(seed)
	ties := map[netlist.NodeID]logic.V{}
	for id := range c.Nodes {
		if r.Intn(100) >= percent {
			continue
		}
		ties[netlist.NodeID(id)] = logic.FromBool(r.Bool())
	}
	return ties
}

// TestFindMatchesMapVerifier checks the dense verifier against the map
// verifier it replaced: Find's classes and partner map must equal those
// the reference check produces, and both checks must agree on random
// pairs, over random circuits and tie sets (ties in and out of each cone,
// support bounds that are hit).
func TestFindMatchesMapVerifier(t *testing.T) {
	classes, bounded, equalPairs := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		c := randEquivCircuit(seed, 4+int(seed%9), 40+int(seed%5)*30, int(seed%4))
		ties := randTies(c, seed*7919, []int{0, 3, 10, 25}[seed%4])
		support := []int{2, 4, 8, 14}[seed/4%4]
		got := findWith(c, ties, newVerifier(c, ties, support).equal)
		ref := &mapVerifier{c: c, ties: ties, maxSupport: support}
		want := findWith(c, ties, ref.equal)
		if !reflect.DeepEqual(got.Classes, want.Classes) {
			t.Fatalf("seed %d: classes\n%+v\nwant\n%+v", seed, got.Classes, want.Classes)
		}
		if !reflect.DeepEqual(got.Partners, want.Partners) {
			t.Fatalf("seed %d: partners differ", seed)
		}
		classes += len(got.Classes)

		v := newVerifier(c, ties, support)
		r := logic.NewRand64(seed)
		for range 300 {
			a := netlist.NodeID(r.Intn(c.NumNodes()))
			b := netlist.NodeID(r.Intn(c.NumNodes()))
			if _, _, ok := ref.cone(a, b); !ok {
				bounded++
			}
			g, w := v.equal(a, b), ref.equal(a, b)
			if g != w {
				t.Fatalf("seed %d: equal(%s, %s) = %v, reference %v",
					seed, c.NameOf(a), c.NameOf(b), g, w)
			}
			if w && a != b {
				equalPairs++
			}
		}
	}
	// The comparison means little unless classes were found, the support
	// bound was hit and some random pairs were equal.
	if classes < 40 || bounded < 100 || equalPairs < 20 {
		t.Fatalf("weak coverage: %d classes, %d bounded pairs, %d equal pairs", classes, bounded, equalPairs)
	}
	t.Logf("%d classes, %d bounded pairs, %d equal pairs", classes, bounded, equalPairs)
}
