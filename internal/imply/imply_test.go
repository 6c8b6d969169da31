package imply

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func testCircuit(t testing.TB) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("tc")
	b.PI("a")
	b.Gate("g1", logic.OpBuf, netlist.P("a"))
	b.Gate("g2", logic.OpNot, netlist.P("a"))
	b.DFF("f1", netlist.P("g1"), netlist.Clock{})
	b.DFF("f2", netlist.P("g2"), netlist.Clock{})
	b.PO("o", netlist.P("f1"))
	b.PO("o2", netlist.P("f2"))
	return b.MustBuild()
}

func lit(c *netlist.Circuit, name string, v logic.V) Lit {
	return Lit{Node: c.MustLookup(name), Val: v}
}

func TestAddAndContrapositiveDedup(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	a := lit(c, "f1", logic.One)
	b := lit(c, "f2", logic.Zero)
	db.Add(a, b, 0, false, 3)
	db.Add(a, b, 0, false, 1)
	// The contrapositive is the same fact.
	db.Add(b.Not(), a.Not(), 0, true, 2)
	s := db.Freeze()
	if s.Len() != 1 {
		t.Fatalf("Len = %d: a repeat and a contrapositive must merge into one relation", s.Len())
	}
	if !s.IsCombinational(a, b, 0) || s.DepthOf(a, b, 0) != 1 {
		t.Fatalf("merged relation: comb=%v depth=%d, want comb OR-ed and the minimum depth 1",
			s.IsCombinational(a, b, 0), s.DepthOf(a, b, 0))
	}
	if !s.Has(a, b, 0) || !s.Has(b.Not(), a.Not(), 0) {
		t.Fatal("Has must see both forms")
	}
}

func TestCrossFrameCanonicalization(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	a := lit(c, "g1", logic.One)
	b := lit(c, "f1", logic.One)
	// g1=1@t ⟹ f1=1@t+1; contrapositive f1=0@t ⟹ g1=0@t-1.
	db.Add(a, b, 1, false, 0)
	db.Add(b.Not(), a.Not(), -1, false, 0)
	s := db.Freeze()
	if s.Len() != 1 {
		t.Fatalf("Len = %d: contrapositive with negative dt must dedup", s.Len())
	}
	if !s.Has(a, b, 1) || !s.Has(b.Not(), a.Not(), -1) {
		t.Fatal("Has broken for cross-frame")
	}
	if s.CrossFrame() != 1 {
		t.Fatalf("CrossFrame = %d", s.CrossFrame())
	}
	rels := s.Relations()
	if len(rels) != 1 || rels[0].Dt != 1 {
		t.Fatalf("canonical dt must be positive, got %+v", rels)
	}
}

func TestRejects(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	a := lit(c, "f1", logic.One)
	if db.Add(a, a, 0, false, 0) {
		t.Error("trivial a⟹a must be rejected")
	}
	if db.Add(a, Lit{Node: a.Node, Val: logic.X}, 0, false, 0) {
		t.Error("X literal must be rejected")
	}
	if db.Add(Lit{Node: a.Node, Val: logic.X}, a, 0, false, 0) {
		t.Error("X literal must be rejected")
	}
	// a ⟹ ¬a with dt=0 states a is impossible; that is tie information,
	// rejected here (same node, dt 0).
	if db.Add(a, a.Not(), 0, false, 0) {
		t.Error("a⟹¬a must be rejected")
	}
	// But a self-relation across frames is meaningful (e.g. F3=1@t ⟹
	// F3=1@t+1 for a self-loop).
	if !db.Add(a, a, 1, false, 0) {
		t.Error("self-relation across frames must be accepted")
	}
}

func TestSameFrameImplied(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	f1one := lit(c, "f1", logic.One)
	f2zero := lit(c, "f2", logic.Zero)
	g1one := lit(c, "g1", logic.One)
	db.Add(f1one, f2zero, 0, false, 0)
	db.Add(f1one, g1one, 0, false, 0)
	db.Add(g1one, f2zero, 1, false, 0) // cross-frame: not in same-frame index

	s := db.Freeze()
	got := s.SameFrameImplied(f1one)
	if len(got) != 2 {
		t.Fatalf("implied by f1=1: %v", got)
	}
	// Contrapositive direction: f2=1 ⟹ f1=0.
	back := s.SameFrameImplied(f2zero.Not())
	if len(back) != 1 || back[0] != f1one.Not() {
		t.Fatalf("implied by f2=1: %v", back)
	}
	if len(s.SameFrameImplied(lit(c, "f2", logic.Zero))) != 0 {
		t.Fatal("f2=0 implies nothing")
	}
}

func TestCountsAndKinds(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0) // FF-FF
	db.Add(lit(c, "g1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0) // Gate-FF
	db.Add(lit(c, "f1", logic.Zero), lit(c, "g2", logic.One), 0, false, 0) // Gate-FF
	db.Add(lit(c, "g1", logic.One), lit(c, "g2", logic.Zero), 0, false, 0) // Gate-Gate
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.One), 2, false, 0)  // cross-frame: uncounted
	ffff, gateFF, gateGate := db.Freeze().Counts(false)
	if ffff != 1 || gateFF != 2 || gateGate != 1 {
		t.Fatalf("Counts = %d,%d,%d", ffff, gateFF, gateGate)
	}
}

func TestInvalidStates(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0)
	db.Add(lit(c, "g1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0) // not FF-FF
	inv := db.Freeze().InvalidStates()
	if len(inv) != 1 {
		t.Fatalf("InvalidStates = %v", inv)
	}
	// f1=1 ⟹ f2=0 means (f1,f2)=(1,1) is invalid.
	if len(inv[0].Lits) != 2 {
		t.Fatal("pattern size")
	}
	seen := map[string]logic.V{}
	for _, l := range inv[0].Lits {
		seen[c.NameOf(l.Node)] = l.Val
	}
	if seen["f1"] != logic.One || seen["f2"] != logic.One {
		t.Fatalf("pattern = %v", seen)
	}
}

func TestFormatAndWrite(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0)
	db.Add(lit(c, "g1", logic.One), lit(c, "f1", logic.One), 1, false, 0)
	var sb strings.Builder
	if err := db.Freeze().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "f1=1 -> f2=0") {
		t.Errorf("missing same-frame relation in %q", out)
	}
	if !strings.Contains(out, "@+1") {
		t.Errorf("missing dt annotation in %q", out)
	}
}

func TestHasNamed(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0)
	s := db.Freeze()
	if !s.HasNamed("f1", logic.One, "f2", logic.Zero, 0) {
		t.Error("HasNamed direct form")
	}
	if !s.HasNamed("f2", logic.One, "f1", logic.Zero, 0) {
		t.Error("HasNamed contrapositive form")
	}
	if s.HasNamed("nope", logic.One, "f1", logic.Zero, 0) {
		t.Error("HasNamed with unknown name must be false")
	}
}

// TestCanonicalInvolution: canonicalizing a relation or its contrapositive
// yields the same stored fact, for arbitrary literals.
func TestCanonicalInvolution(t *testing.T) {
	c := testCircuit(t)
	n := int32(c.NumNodes())
	f := func(an, bn int32, av, bv bool, dt int8) bool {
		a := Lit{Node: netlist.NodeID(((an % n) + n) % n), Val: logic.FromBool(av)}
		b := Lit{Node: netlist.NodeID(((bn % n) + n) % n), Val: logic.FromBool(bv)}
		r := Relation{A: a, B: b, Dt: int16(dt)}
		return r.canonical() == r.contrapositive().canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestAddIdempotentUnderContrapositive: adding any relation twice in both
// forms results in exactly one stored relation.
func TestAddIdempotentUnderContrapositive(t *testing.T) {
	c := testCircuit(t)
	n := int32(c.NumNodes())
	f := func(an, bn int32, av, bv bool, dt int8) bool {
		a := Lit{Node: netlist.NodeID(((an % n) + n) % n), Val: logic.FromBool(av)}
		b := Lit{Node: netlist.NodeID(((bn % n) + n) % n), Val: logic.FromBool(bv)}
		if a.Node == b.Node && dt == 0 {
			return true
		}
		db := NewDB(c)
		db.Add(a, b, int(dt), false, 0)
		db.Add(b.Not(), a.Not(), -int(dt), false, 0)
		return db.Freeze().Len() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCombinationalFlag(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	a := lit(c, "f1", logic.One)
	b := lit(c, "f2", logic.Zero)
	g := lit(c, "g1", logic.One)
	db.Add(a, b, 0, false, 0) // sequential-only FF-FF
	db.Add(a, g, 0, true, 0)  // combinationally derivable Gate-FF
	s := db.Freeze()
	if s.IsCombinational(a, b, 0) {
		t.Error("a->b must not be combinational")
	}
	if !s.IsCombinational(a, g, 0) {
		t.Error("a->g must be combinational")
	}
	// Upgrading: re-adding a->b with comb=true flips the flag, also via
	// the contrapositive form.
	db.Add(b.Not(), a.Not(), 0, true, 0)
	up := db.Freeze()
	if up.Len() != 2 {
		t.Errorf("Len = %d after a re-add, want 2", up.Len())
	}
	if !up.IsCombinational(a, b, 0) {
		t.Error("flag not upgraded")
	}
	if s.IsCombinational(a, b, 0) {
		t.Error("upgrade leaked into an earlier snapshot")
	}
	db2 := NewDB(c)
	db2.Add(a, b, 0, false, 0)
	db2.Add(a, g, 0, true, 0)
	s2 := db2.Freeze()
	ffff, gateFF, _ := s2.Counts(true)
	if ffff != 1 || gateFF != 0 {
		t.Errorf("seq-only Counts = %d,%d", ffff, gateFF)
	}
	ffff, gateFF, _ = s2.Counts(false)
	if ffff != 1 || gateFF != 1 {
		t.Errorf("all Counts = %d,%d", ffff, gateFF)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	c := testCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 2)
	db.Add(lit(c, "g1", logic.One), lit(c, "f1", logic.One), 1, false, 1)
	db.Add(lit(c, "g2", logic.Zero), lit(c, "f2", logic.One), 0, true, 0)
	s := db.Freeze()

	var sb strings.Builder
	if err := s.Serialize(&sb); err != nil {
		t.Fatal(err)
	}
	s2, err := LoadSnapshot(c, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("Len %d != %d", s2.Len(), s.Len())
	}
	for _, r := range s.Relations() {
		if !s2.Has(r.A, r.B, int(r.Dt)) {
			t.Errorf("lost relation %v", s.FormatRelation(r))
		}
		if s.IsCombinational(r.A, r.B, int(r.Dt)) != s2.IsCombinational(r.A, r.B, int(r.Dt)) {
			t.Errorf("comb flag changed for %v", s.FormatRelation(r))
		}
		if s.DepthOf(r.A, r.B, int(r.Dt)) != s2.DepthOf(r.A, r.B, int(r.Dt)) {
			t.Errorf("depth changed for %v", s.FormatRelation(r))
		}
	}
}

// TestDeserializeErrors: every malformed line is rejected with its line
// number; comments and blank lines load.
func TestDeserializeErrors(t *testing.T) {
	c := testCircuit(t)
	for _, tc := range []struct{ why, src string }{
		{"unknown node", "nope 1 f1 0 0 false 0\n"},
		{"bad value", "f1 2 f2 0 0 false 0\n"},
		{"garbage", "garbage\n"},
		{"trailing field", "f1 1 f2 0 0 false 0 extra\n"},
		{"missing field", "f1 1 f2 0 0 false\n"},
		{"bad bool", "f1 1 f2 0 0 maybe 0\n"},
		{"bad dt", "f1 1 f2 0 1x false 0\n"},
		{"dt above int16", "f1 1 f2 0 32768 false 0\n"},
		{"dt below int16", "f1 1 f2 0 -32769 false 0\n"},
		{"depth above int16", "f1 1 f2 0 0 false 40000\n"},
	} {
		src := "# header\nf1 1 f2 0 0 false 0\n" + tc.src
		_, err := LoadSnapshot(c, strings.NewReader(src))
		if err == nil {
			t.Errorf("%s accepted: %q", tc.why, tc.src)
		} else if !strings.Contains(err.Error(), "line 3:") {
			t.Errorf("%s: error %q does not name line 3", tc.why, err)
		}
	}
	s, err := LoadSnapshot(c, strings.NewReader("# comment\n\n  \t\nf1 1 f2 0 -32768 false 32767\r\n"))
	if err != nil {
		t.Fatalf("comments/blank lines rejected: %v", err)
	}
	if s.Len() != 1 || s.DepthOf(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), -32768) != 32767 {
		t.Fatalf("int16 extremes did not load: %d relations", s.Len())
	}
}

// TestLoadSnapshotMatchesFreeze: lines in any order, repeated, and in
// either contrapositive form load to the snapshot that adding the same
// relations to a DB and freezing it produces.
func TestLoadSnapshotMatchesFreeze(t *testing.T) {
	c := testCircuit(t)
	f1, f2 := lit(c, "f1", logic.One), lit(c, "f2", logic.Zero)
	g1, g2 := lit(c, "g1", logic.One), lit(c, "g2", logic.Zero)
	db := NewDB(c)
	db.Add(g1, f1, 1, false, 3)
	db.Add(f1, f2, 0, false, 2)
	db.Add(f2.Not(), f1.Not(), 0, true, 5) // contrapositive repeat: comb upgrade, depth kept at 2
	db.Add(g1, f1, 1, false, 1)            // repeat: depth falls to 1
	db.Add(g2, g2.Not(), 0, true, 0)       // rejected: same node in one frame
	db.Add(g2, f2, 0, false, 0)
	const src = "g1 1 f1 1 1 false 3\n" +
		"f1 1 f2 0 0 false 2\n" +
		"f2 1 f1 0 0 true 5\n" +
		"g1 1 f1 1 1 false 1\n" +
		"g2 0 g2 1 0 true 0\n" +
		"g2 0 f2 0 0 false 0\n"
	got, err := LoadSnapshot(c, strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var want, have strings.Builder
	if err := db.Freeze().Serialize(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Serialize(&have); err != nil {
		t.Fatal(err)
	}
	if have.String() != want.String() {
		t.Fatalf("LoadSnapshot:\n%s\nDB.Add+Freeze:\n%s", have.String(), want.String())
	}
	if !got.IsCombinational(f1, f2, 0) || got.DepthOf(f1, f2, 0) != 2 || got.DepthOf(g1, f1, 1) != 1 {
		t.Fatal("repeats did not merge like DB.Add")
	}
	for _, l := range []Lit{f1, f2.Not(), g1, g2} {
		if !slices.Equal(got.SameFrameImplied(l), db.Freeze().SameFrameImplied(l)) {
			t.Fatalf("same-frame index differs for %v", l)
		}
	}
}
