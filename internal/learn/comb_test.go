package learn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// combCircuit builds a circuit whose backward implications exercise every
// justification rule: NAND, NOR, XOR, buffers and inverters; flip-flops
// make the relations count as gate-FF / FF-FF.
func combCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("cc")
	b.PI("a")
	b.Gate("nand", logic.OpNand, netlist.P("q1"), netlist.P("q2"))
	b.Gate("nor", logic.OpNor, netlist.P("q1"), netlist.P("q3"))
	b.Gate("xor", logic.OpXor, netlist.P("q2"), netlist.P("q3"))
	b.Gate("inv", logic.OpNot, netlist.P("nand"))
	b.DFF("q1", netlist.P("a"), netlist.Clock{})
	b.DFF("q2", netlist.P("a"), netlist.Clock{})
	b.DFF("q3", netlist.P("a"), netlist.Clock{})
	b.PO("o1", netlist.P("inv"))
	b.PO("o2", netlist.P("nor"))
	b.PO("o3", netlist.P("xor"))
	return b.MustBuild()
}

// TestCombinationalParallelDeterminism: the sharded combinational sweep
// produces a bit-identical database and tie list for any worker count, with
// and without tie constants folded in.
func TestCombinationalParallelDeterminism(t *testing.T) {
	c := combCircuit(t)
	dump := func(db *imply.DB, ties []Tie) string {
		var sb strings.Builder
		if err := db.Freeze().Serialize(&sb); err != nil {
			t.Fatal(err)
		}
		for _, tie := range ties {
			fmt.Fprintf(&sb, "tie %s=%s\n", c.NameOf(tie.Node), tie.Val)
		}
		return sb.String()
	}
	for _, preTies := range []map[netlist.NodeID]logic.V{
		nil,
		{c.MustLookup("inv"): logic.One},
	} {
		baseDB := imply.NewDB(c)
		base := dump(baseDB, CombinationalParallel(c, baseDB, preTies, 1))
		for _, w := range []int{2, 3, 8} {
			db := imply.NewDB(c)
			got := dump(db, CombinationalParallel(c, db, preTies, w))
			if got != base {
				t.Fatalf("workers=%d: combinational sweep differs from serial (%d vs %d bytes)",
					w, len(got), len(base))
			}
		}
	}
}

// combReference is the per-injection sweep the settled base frame
// replaced, kept as an oracle: every injection starts from an empty frame
// and re-propagates all the ties together with the injected literal. It
// shares imply.Propagator's propagation rules but not its settled base
// frame: each injection settles a fresh engine whose ties include it.
func combReference(c *netlist.Circuit, db *imply.DB, ties map[netlist.NodeID]logic.V) []Tie {
	tieVal := make([]logic.V, c.NumNodes())
	for tn, tv := range ties {
		tieVal[tn] = tv
	}
	var newTies []Tie
	for id := range c.Nodes {
		n := netlist.NodeID(id)
		if _, tied := ties[n]; tied || c.Nodes[id].Kind == netlist.KindPI {
			continue
		}
		for _, v := range []logic.V{logic.Zero, logic.One} {
			tieVal[n] = v
			p := imply.NewPropagator(c, tieVal, nil)
			tieVal[n] = logic.X
			if p.BaseConflict() {
				newTies = append(newTies, Tie{Node: n, Val: v.Not(), Frame: 0})
				continue
			}
			for _, lit := range p.BaseImps() {
				if c.IsSeq(n) || c.IsSeq(lit.Node) {
					db.Add(imply.Lit{Node: n, Val: v}, lit, 0, true, 0)
				}
			}
		}
	}
	return newTies
}

// TestCombinationalMatchesReference: settling the ties once per worker
// yields the database and tie list of re-propagating them per injection,
// on random circuits with random tie sets (some contradictory), on a
// deliberately contradictory set and on suite circuits with the comb ties
// the learner feeds the pass.
func TestCombinationalMatchesReference(t *testing.T) {
	type tcase struct {
		name string
		c    *netlist.Circuit
		ties map[netlist.NodeID]logic.V
	}
	var cases []tcase
	for seed := uint64(1); seed <= 12; seed++ {
		c := randCircuit(seed, 5, 60, 8)
		r := logic.NewRand64(seed * 7919)
		ties := map[netlist.NodeID]logic.V{}
		for _, tie := range Learn(c, Options{SkipComb: true}).CombTies {
			if r.Intn(2) == 0 {
				ties[tie.Node] = tie.Val
			}
		}
		for k := r.Intn(4); k > 0; k-- {
			n := netlist.NodeID(r.Intn(c.NumNodes()))
			ties[n] = logic.Zero + logic.V(r.Intn(2))
		}
		cases = append(cases, tcase{fmt.Sprintf("rand%d", seed), c, ties})
	}
	cc := combCircuit(t)
	// nand=0 forces q1=1: the ties contradict each other.
	cases = append(cases, tcase{"contradictory", cc, map[netlist.NodeID]logic.V{
		cc.MustLookup("nand"): logic.Zero, cc.MustLookup("q1"): logic.Zero,
	}})
	for _, name := range []string{"s382", "s953"} {
		c := gen.MustBuild(name)
		ties := map[netlist.NodeID]logic.V{}
		for _, tie := range Learn(c, Options{SkipComb: true}).CombTies {
			ties[tie.Node] = tie.Val
		}
		cases = append(cases, tcase{name, c, ties})
	}

	dump := func(c *netlist.Circuit, db *imply.DB, ties []Tie) string {
		var sb strings.Builder
		if err := db.Freeze().Serialize(&sb); err != nil {
			t.Fatal(err)
		}
		for _, tie := range ties {
			fmt.Fprintf(&sb, "tie %s=%s\n", c.NameOf(tie.Node), tie.Val)
		}
		return sb.String()
	}
	conflicts, withBase := 0, 0
	for _, tc := range cases {
		tieVal := make([]logic.V, tc.c.NumNodes())
		for n, v := range tc.ties {
			tieVal[n] = v
		}
		if base := imply.NewPropagator(tc.c, tieVal, nil); base.BaseConflict() {
			conflicts++
		} else if len(base.BaseImps()) > 0 {
			withBase++
		}
		refDB := imply.NewDB(tc.c)
		want := dump(tc.c, refDB, combReference(tc.c, refDB, tc.ties))
		for _, w := range []int{1, 3} {
			db := imply.NewDB(tc.c)
			if got := dump(tc.c, db, CombinationalParallel(tc.c, db, tc.ties, w)); got != want {
				t.Errorf("%s workers=%d: sweep differs from the reference (%d vs %d bytes)",
					tc.name, w, len(got), len(want))
			}
		}
	}
	if conflicts == 0 || withBase == 0 {
		t.Fatalf("cases reach %d contradictory tie sets and %d with tie-implied nodes; want both > 0",
			conflicts, withBase)
	}
}

func TestCombBackwardNand(t *testing.T) {
	c := combCircuit(t)
	db := imply.NewDB(c)
	CombinationalParallel(c, db, nil, 1)
	s := db.Freeze()
	// nand=0 ⟹ both inputs 1.
	if !s.HasNamed("nand", logic.Zero, "q1", logic.One, 0) ||
		!s.HasNamed("nand", logic.Zero, "q2", logic.One, 0) {
		t.Error("NAND=0 backward implication missing")
	}
	// inv=1 ⟹ nand=0 ⟹ q1=1 (chained through the inverter).
	if !s.HasNamed("inv", logic.One, "q1", logic.One, 0) {
		t.Error("chained NOT backward implication missing")
	}
	// nor=1 ⟹ both inputs 0.
	if !s.HasNamed("nor", logic.One, "q1", logic.Zero, 0) ||
		!s.HasNamed("nor", logic.One, "q3", logic.Zero, 0) {
		t.Error("NOR=1 backward implication missing")
	}
}

func TestCombXorCompletion(t *testing.T) {
	// XOR backward: with q2 known and xor known, q3 follows. The static
	// learner injects one node at a time, so this shows up as the
	// *pairing* of forward implications instead; check the forward
	// direction through an injected FF: q2=1 ⟹ nothing alone, but
	// injecting xor=1 with q2 known is not expressible — instead verify
	// the contrapositive database entries exist via q-injections.
	c := combCircuit(t)
	db := imply.NewDB(c)
	CombinationalParallel(c, db, nil, 1)
	s := db.Freeze()
	// Injecting q1=1 forces nor=0 (forward).
	if !s.HasNamed("q1", logic.One, "nor", logic.Zero, 0) {
		t.Error("forward q1=1 -> nor=0 missing")
	}
	// Every stored relation must be flagged combinational.
	for _, r := range s.Relations() {
		if !s.IsCombinational(r.A, r.B, int(r.Dt)) {
			t.Fatalf("non-combinational relation from comb learner: %v", s.FormatRelation(r))
		}
	}
}

func TestCombTieDetection(t *testing.T) {
	b := netlist.NewBuilder("ct")
	b.PI("x")
	b.Gate("t1", logic.OpAnd, netlist.P("x"), netlist.N("x")) // == 0
	b.Gate("t2", logic.OpOr, netlist.P("x"), netlist.N("x"))  // == 1
	b.DFF("q", netlist.P("t1"), netlist.Clock{})
	b.PO("o", netlist.P("q"))
	b.PO("o2", netlist.P("t2"))
	c := b.MustBuild()
	db := imply.NewDB(c)
	ties := CombinationalParallel(c, db, nil, 1)
	got := map[string]logic.V{}
	for _, tie := range ties {
		got[c.NameOf(tie.Node)] = tie.Val
	}
	// Injecting t1=1 forces x=1 through one pin and x=0 through the
	// inverted pin: a conflict, so t1 is combinationally tied to 0. The
	// OR dual ties t2 to 1.
	if got["t1"] != logic.Zero {
		t.Errorf("AND(x,¬x) tie: %v", got)
	}
	if got["t2"] != logic.One {
		t.Errorf("OR(x,¬x) tie: %v", got)
	}
}
