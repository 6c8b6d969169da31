package equiv

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func classOf(t *testing.T, r *Result, c *netlist.Circuit, name string) *Class {
	t.Helper()
	id := c.MustLookup(name)
	for i := range r.Classes {
		if r.Classes[i].Rep == id {
			return &r.Classes[i]
		}
		for _, m := range r.Classes[i].Members {
			if m == id {
				return &r.Classes[i]
			}
		}
	}
	return nil
}

func TestIdenticalTwins(t *testing.T) {
	b := netlist.NewBuilder("twins")
	b.PI("a")
	b.PI("b")
	b.Gate("g1", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.Gate("g2", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.Gate("g3", logic.OpOr, netlist.P("a"), netlist.P("b")) // different
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	b.PO("o3", netlist.P("g3"))
	c := b.MustBuild()
	r := Find(c, nil)
	cls := classOf(t, r, c, "g1")
	if cls == nil {
		t.Fatal("g1/g2 class not found")
	}
	if len(cls.Members) != 1 {
		t.Fatalf("class = %+v", cls)
	}
	if classOf(t, r, c, "g3") != nil {
		t.Fatal("g3 must not join any class")
	}
}

func TestStructurallyDifferentEquivalence(t *testing.T) {
	// De Morgan: NOR(a,b) == AND(¬a,¬b).
	b := netlist.NewBuilder("dm")
	b.PI("a")
	b.PI("b")
	b.Gate("g1", logic.OpNor, netlist.P("a"), netlist.P("b"))
	b.Gate("g2", logic.OpAnd, netlist.N("a"), netlist.N("b"))
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	c := b.MustBuild()
	r := Find(c, nil)
	if classOf(t, r, c, "g1") == nil {
		t.Fatal("De Morgan pair not identified")
	}
}

// TestFalseCandidateRejected builds two gates that agree on the sampled
// patterns only by luck of a tiny support overlap — verification must
// reject non-equivalent pairs regardless of signature collisions, which we
// force by checking a pair that differs in exactly one minterm.
func TestOneMintermDifferenceRejected(t *testing.T) {
	// g1 = AND(a,b,c); g2 = AND(a,b,c) except minterm 111 -> it's
	// actually AND(a,b) here, differing on (1,1,0).
	b := netlist.NewBuilder("near")
	b.PI("a")
	b.PI("b")
	b.PI("c")
	b.Gate("g1", logic.OpAnd, netlist.P("a"), netlist.P("b"), netlist.P("c"))
	b.Gate("g2", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	c := b.MustBuild()
	v := newVerifier(c, nil, 14)
	if v.equal(c.MustLookup("g1"), c.MustLookup("g2")) {
		t.Fatal("verifier accepted non-equivalent gates")
	}
	if !v.equal(c.MustLookup("g1"), c.MustLookup("g1")) {
		t.Fatal("verifier rejected identity")
	}
}

func TestTieFoldingEnablesEquivalence(t *testing.T) {
	// The Figure 1 situation: G2=AND(F1, OR(F2, tied0)) ≡ G4=AND(F1,F2)
	// only when the tie is folded in.
	c := circuits.Figure1()
	g2 := c.MustLookup("G2")
	g4 := c.MustLookup("G4")
	ties := map[netlist.NodeID]logic.V{
		c.MustLookup("G3"):  logic.Zero,
		c.MustLookup("G12"): logic.Zero,
	}
	r := Find(c, ties)
	found := false
	for _, cls := range r.Classes {
		in := func(n netlist.NodeID) bool {
			if cls.Rep == n {
				return true
			}
			for _, m := range cls.Members {
				if m == n {
					return true
				}
			}
			return false
		}
		if in(g2) && in(g4) {
			found = true
		}
	}
	if !found {
		t.Fatal("G2 ≡ G4 not identified with ties folded (the paper's example)")
	}
}

// TestSequentialTieFoldingMatters: when a gate is tied only sequentially
// (not structurally constant), folding the learned tie is what makes the
// dependent equivalence visible — binary signatures alone cannot see it.
func TestSequentialTieFoldingMatters(t *testing.T) {
	b := netlist.NewBuilder("seqtie")
	b.PI("a")
	b.PI("x")
	b.PI("y")
	// gt is not structurally constant, but assume learning proved it
	// sequentially tied to 0.
	b.Gate("gt", logic.OpAnd, netlist.P("x"), netlist.P("y"))
	b.Gate("g1", logic.OpOr, netlist.P("a"), netlist.P("gt"))
	b.Gate("g2", logic.OpBuf, netlist.P("a"))
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	c := b.MustBuild()
	if classOf(t, Find(c, nil), c, "g1") != nil {
		t.Fatal("g1 ≡ g2 must not hold without the tie")
	}
	ties := map[netlist.NodeID]logic.V{c.MustLookup("gt"): logic.Zero}
	if classOf(t, Find(c, ties), c, "g1") == nil {
		t.Fatal("g1 ≡ g2 must hold once the sequential tie is folded in")
	}
}

func TestPartnersStar(t *testing.T) {
	b := netlist.NewBuilder("star")
	b.PI("a")
	b.PI("b")
	b.Gate("g1", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.Gate("g2", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.Gate("g3", logic.OpAnd, netlist.P("b"), netlist.P("a"))
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	b.PO("o3", netlist.P("g3"))
	c := b.MustBuild()
	r := Find(c, nil)
	cls := classOf(t, r, c, "g1")
	if cls == nil || len(cls.Members) != 2 {
		t.Fatalf("classes = %+v", r.Classes)
	}
	// The partner map must propagate from any member to all others via
	// the simulator.
	e := sim.NewEngine(c)
	res := e.Run([]sim.Injection{{Frame: 0, Node: cls.Members[0], Val: logic.One}},
		sim.Options{Equiv: r.Partners})
	for _, m := range cls.Members {
		if res.Frames[0].Get(m) != logic.One {
			t.Errorf("member %s not propagated", c.NameOf(m))
		}
	}
	if res.Frames[0].Get(cls.Rep) != logic.One {
		t.Error("rep not propagated")
	}
}

func TestTiedGatesExcluded(t *testing.T) {
	c := circuits.Figure1()
	ties := map[netlist.NodeID]logic.V{
		c.MustLookup("G3"):  logic.Zero,
		c.MustLookup("G12"): logic.Zero,
	}
	r := Find(c, ties)
	for _, cls := range r.Classes {
		if _, tied := ties[cls.Rep]; tied {
			t.Fatal("tied gate used as class rep")
		}
		for _, m := range cls.Members {
			if _, tied := ties[m]; tied {
				t.Fatal("tied gate joined a class")
			}
		}
	}
}

func TestSupportBoundDrops(t *testing.T) {
	// A 20-input pair exceeds MaxSupport=14 and must be dropped even
	// though the gates are identical.
	b := netlist.NewBuilder("wide")
	refs := make([]netlist.Ref, 0, 20)
	for i := 0; i < 20; i++ {
		name := string(rune('a' + i))
		b.PI(name)
		refs = append(refs, netlist.P(name))
	}
	b.Gate("g1", logic.OpAnd, refs...)
	b.Gate("g2", logic.OpAnd, refs...)
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	c := b.MustBuild()
	r := Find(c, nil)
	if classOf(t, r, c, "g1") != nil {
		t.Fatal("wide pair must be dropped, not trusted")
	}
	r = findWith(c, nil, newVerifier(c, nil, 20).equal)
	if classOf(t, r, c, "g1") == nil {
		t.Fatal("raising the bound must verify the pair")
	}
}
