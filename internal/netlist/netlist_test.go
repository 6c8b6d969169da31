package netlist

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/logic"
)

// small builds a tiny 2-FF circuit used by several tests:
//
//	PI a, b;  g1 = AND(a, b);  g2 = OR(g1, q1);  q1 = DFF(g2); q2 = DFF(¬g1)
//	PO out = g2
func small(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("small")
	b.PI("a")
	b.PI("b")
	b.Gate("g1", logic.OpAnd, P("a"), P("b"))
	b.Gate("g2", logic.OpOr, P("g1"), P("q1"))
	b.DFF("q1", P("g2"), Clock{})
	b.DFF("q2", N("g1"), Clock{})
	b.PO("out", P("g2"))
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

// TestBuilderReuseAfterBuild: a circuit takes the builder's tables as its
// own, so definitions after Build, and a second Build, must leave the
// first circuit as it was built.
func TestBuilderReuseAfterBuild(t *testing.T) {
	b := NewBuilder("reuse")
	b.PI("a")
	b.Gate("g", logic.OpNot, P("a"))
	first := b.MustBuild()
	b.Gate("h", logic.OpAnd, P("g"), P("k"))
	b.PI("k")
	second := b.MustBuild()
	b.Gate("g", logic.OpBuf, P("a")) // a second definition: Build fails
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), `node "g" defined twice`) {
		t.Fatalf("redefinition: err = %v", err)
	}
	if first.NumNodes() != 2 || first.Nodes[1].Op != logic.OpNot {
		t.Fatalf("first circuit changed: %d nodes, g is %v", first.NumNodes(), first.Nodes[1].Op)
	}
	if _, ok := first.Lookup("h"); ok {
		t.Fatal("a later definition reached the first circuit's names")
	}
	h := second.MustLookup("h")
	if second.NumNodes() != 4 || second.Fanin(h)[1].Node != second.MustLookup("k") {
		t.Fatalf("second circuit: %d nodes, h fanin %v", second.NumNodes(), second.Fanin(h))
	}
}

func TestBuildSmall(t *testing.T) {
	c := small(t)
	st := c.Stats()
	if st.PIs != 2 || st.Gates != 2 || st.DFFs != 2 || st.POs != 1 {
		t.Fatalf("stats = %v", st)
	}
	g1 := c.MustLookup("g1")
	if !c.IsStem(g1) {
		t.Error("g1 feeds g2 and q2: must be a stem")
	}
	if c.IsStem(c.MustLookup("g2")) {
		t.Error("g2 feeds q1 and a PO: POs must not count toward stems")
	}
	a := c.MustLookup("a")
	if c.IsStem(a) {
		t.Error("a has fanout 1")
	}
	stems := c.Stems()
	if len(stems) != 1 || stems[0] != g1 {
		t.Errorf("Stems() = %v", stems)
	}
	q2 := c.MustLookup("q2")
	if !c.Nodes[q2].Seq.D.Inv {
		t.Error("q2's D pin must be inverted")
	}
}

func TestLevels(t *testing.T) {
	c := small(t)
	if c.Nodes[c.MustLookup("a")].Level != 0 {
		t.Error("PI level must be 0")
	}
	if c.Nodes[c.MustLookup("q1")].Level != 0 {
		t.Error("FF output level must be 0")
	}
	if c.Nodes[c.MustLookup("g1")].Level != 1 {
		t.Error("g1 level must be 1")
	}
	if c.Nodes[c.MustLookup("g2")].Level != 2 {
		t.Error("g2 level must be 2")
	}
	order := c.EvalOrder()
	if len(order) != 2 || order[0] != c.MustLookup("g1") || order[1] != c.MustLookup("g2") {
		t.Errorf("EvalOrder = %v", order)
	}
}

func TestFaninFanout(t *testing.T) {
	c := small(t)
	g2 := c.MustLookup("g2")
	fi := c.Fanin(g2)
	if len(fi) != 2 || fi[0].Node != c.MustLookup("g1") || fi[1].Node != c.MustLookup("q1") {
		t.Errorf("Fanin(g2) = %v", fi)
	}
	fo := c.Fanouts(c.MustLookup("g1"))
	if len(fo) != 2 {
		t.Fatalf("Fanouts(g1) = %v", fo)
	}
	// g1 feeds g2 and (inverted) the D pin of q2.
	seen := map[string]bool{}
	for _, id := range fo {
		seen[c.NameOf(id)] = true
	}
	if !seen["g2"] || !seen["q2"] {
		t.Errorf("Fanouts(g1) = %v", fo)
	}
}

func TestUndefinedNet(t *testing.T) {
	b := NewBuilder("bad")
	b.Gate("g", logic.OpAnd, P("missing"), P("alsoMissing"))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "undefined net") {
		t.Fatalf("expected undefined-net error, got %v", err)
	}
}

func TestDoubleDefinition(t *testing.T) {
	b := NewBuilder("bad")
	b.PI("a")
	b.PI("a")
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "defined twice") {
		t.Fatalf("expected double-definition error, got %v", err)
	}
}

// TestManyDoubleDefinitions: a repeated definition costs one name lookup,
// however many nets came before it. 100k nets, each defined twice in
// reverse order, build in well under the time a scan of the nets per
// repeat (1e10 name comparisons) would take.
func TestManyDoubleDefinitions(t *testing.T) {
	const n = 100_000
	start := time.Now()
	b := NewBuilder("dups")
	for i := range n {
		b.PI("n" + strconv.Itoa(i))
	}
	for i := n - 1; i >= 0; i-- {
		b.Gate("n"+strconv.Itoa(i), logic.OpNot, P("n0"))
	}
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), `node "n99999" defined twice`) ||
		!strings.HasSuffix(err.Error(), "(+99992 more)") {
		t.Fatalf("err = %.200v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("%d repeated definitions took %v", n, d)
	}
}

func TestArityValidation(t *testing.T) {
	b := NewBuilder("bad")
	b.PI("a")
	b.PI("b")
	b.Gate("g", logic.OpNot, P("a"), P("b"))
	if _, err := b.Build(); err == nil {
		t.Fatal("NOT with 2 inputs must fail")
	}
	b2 := NewBuilder("bad2")
	b2.Gate("g", logic.OpAnd)
	if _, err := b2.Build(); err == nil {
		t.Fatal("AND with 0 inputs must fail")
	}
	b3 := NewBuilder("ok")
	b3.Gate("c0", logic.OpConst0)
	if _, err := b3.Build(); err != nil {
		t.Fatalf("CONST0 with 0 inputs must build: %v", err)
	}
}

func TestCombinationalCycle(t *testing.T) {
	b := NewBuilder("cyc")
	b.PI("a")
	b.Gate("g1", logic.OpAnd, P("a"), P("g2"))
	b.Gate("g2", logic.OpOr, P("g1"), P("a"))
	_, err := b.Build()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestSequentialFeedbackAllowed(t *testing.T) {
	// A cycle through a flip-flop is legal.
	b := NewBuilder("loop")
	b.PI("a")
	b.Gate("g", logic.OpOr, P("a"), P("q"))
	b.DFF("q", P("g"), Clock{})
	if _, err := b.Build(); err != nil {
		t.Fatalf("sequential feedback must be allowed: %v", err)
	}
}

func TestClockClasses(t *testing.T) {
	b := NewBuilder("clk")
	b.PI("d")
	b.DFF("f1", P("d"), Clock{Domain: 0, Phase: 0})
	b.DFF("f2", P("d"), Clock{Domain: 0, Phase: 0})
	b.DFF("f3", P("d"), Clock{Domain: 0, Phase: 1}) // other phase
	b.DFF("f4", P("d"), Clock{Domain: 1, Phase: 0}) // other domain (e.g. gated)
	b.Latch("l1", P("d"), Clock{Domain: 0, Phase: 0})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	classes := c.Classes()
	if len(classes) != 4 {
		t.Fatalf("want 4 classes (same clk FFs / phase / domain / latch), got %d", len(classes))
	}
	// f1 and f2 share a class; everything else is alone.
	f1 := c.Nodes[c.MustLookup("f1")].Seq.Class
	f2 := c.Nodes[c.MustLookup("f2")].Seq.Class
	f3 := c.Nodes[c.MustLookup("f3")].Seq.Class
	f4 := c.Nodes[c.MustLookup("f4")].Seq.Class
	l1 := c.Nodes[c.MustLookup("l1")].Seq.Class
	if f1 != f2 {
		t.Error("f1 and f2 must share a class")
	}
	if f3 == f1 || f4 == f1 || l1 == f1 || f3 == f4 || l1 == f3 || l1 == f4 {
		t.Error("distinct phase/domain/type must split classes")
	}
	if len(classes[f1]) != 2 {
		t.Errorf("class of f1 has %d members", len(classes[f1]))
	}
}

func TestSetResetAttributes(t *testing.T) {
	b := NewBuilder("sr")
	b.PI("d")
	b.PI("s")
	b.PI("r")
	b.Gate("zero", logic.OpConst0)
	b.DFF("f1", P("d"), Clock{})
	b.SetNet("f1", P("s"))
	b.DFF("f2", P("d"), Clock{})
	b.ResetNet("f2", P("r"))
	b.DFF("f3", P("d"), Clock{})
	b.SetNet("f3", P("zero")) // constrained set
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f1 := c.Nodes[c.MustLookup("f1")].Seq
	if !f1.HasSet() || f1.HasReset() {
		t.Error("f1 set/reset attributes wrong")
	}
	f2 := c.Nodes[c.MustLookup("f2")].Seq
	if f2.HasSet() || !f2.HasReset() {
		t.Error("f2 set/reset attributes wrong")
	}
	// Set/reset nets count toward fanout.
	if got := c.FanoutCount(c.MustLookup("s")); got != 1 {
		t.Errorf("fanout of set net = %d", got)
	}
}

func TestMultiPortLatch(t *testing.T) {
	b := NewBuilder("mp")
	b.PI("d")
	b.PI("en")
	b.PI("d2")
	b.Latch("l", P("d"), Clock{})
	b.AddPort("l", P("en"), P("d2"))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	l := c.Nodes[c.MustLookup("l")].Seq
	if len(l.Ports) != 1 {
		t.Fatalf("ports = %v", l.Ports)
	}
	if c.FanoutCount(c.MustLookup("en")) != 1 || c.FanoutCount(c.MustLookup("d2")) != 1 {
		t.Error("port pins must count toward fanout")
	}
}

func TestSetResetOnNonSeq(t *testing.T) {
	b := NewBuilder("bad")
	b.PI("a")
	b.SetNet("a", P("a"))
	if _, err := b.Build(); err == nil {
		t.Fatal("SetNet on a PI must fail")
	}
}

func TestLookup(t *testing.T) {
	c := small(t)
	if _, ok := c.Lookup("nope"); ok {
		t.Error("Lookup of missing name succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of missing name did not panic")
		}
	}()
	c.MustLookup("nope")
}

func TestStatsString(t *testing.T) {
	s := small(t).Stats()
	str := s.String()
	for _, want := range []string{"pi=2", "gates=2", "dff=2", "stems=1"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats string %q missing %q", str, want)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindPI.String() != "PI" || KindGate.String() != "GATE" ||
		KindDFF.String() != "DFF" || KindLatch.String() != "LATCH" || Kind(99).String() != "?" {
		t.Error("Kind.String broken")
	}
}

func TestFanoutCountsPerPin(t *testing.T) {
	// A gate consuming the same net on two pins counts two fanout
	// branches — the stem definition the paper's Figure 1 relies on
	// (I1 feeds G3 and G12 twice each).
	b := NewBuilder("pins")
	b.PI("x")
	b.Gate("g", logic.OpAnd, P("x"), N("x"))
	b.PO("o", P("g"))
	c := b.MustBuild()
	if got := c.FanoutCount(c.MustLookup("x")); got != 2 {
		t.Fatalf("fanout of x = %d, want 2 (one per pin)", got)
	}
	if !c.IsStem(c.MustLookup("x")) {
		t.Fatal("x must be a stem")
	}
}

func TestEvalOrderRespectsDependencies(t *testing.T) {
	// Deliberately define gates in reverse dependency order; EvalOrder
	// must still sort g_late after g_early.
	b := NewBuilder("order")
	b.PI("a")
	b.Gate("late", logic.OpNot, P("early"))
	b.Gate("early", logic.OpBuf, P("a"))
	b.PO("o", P("late"))
	c := b.MustBuild()
	seen := map[NodeID]bool{}
	for _, id := range c.EvalOrder() {
		for _, p := range c.Fanin(id) {
			if c.Nodes[p.Node].Kind == KindGate && !seen[p.Node] {
				t.Fatalf("gate %s evaluated before its input %s", c.NameOf(id), c.NameOf(p.Node))
			}
		}
		seen[id] = true
	}
}
