package imply

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// snapCircuit builds a tiny circuit with two FFs and a gate for snapshot
// tests.
func snapCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("snap")
	b.PI("a")
	b.Gate("g1", logic.OpAnd, netlist.P("a"), netlist.P("f1"))
	b.Gate("g2", logic.OpOr, netlist.P("a"), netlist.P("f2"))
	b.DFF("f1", netlist.P("g1"), netlist.Clock{})
	b.DFF("f2", netlist.P("g2"), netlist.Clock{})
	b.PO("o", netlist.P("g2"))
	return b.MustBuild()
}

// TestSnapshotMirrorsDB checks every snapshot query against the values
// the three added relations must produce.
func TestSnapshotMirrorsDB(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	f1, f2 := lit(c, "f1", logic.One), lit(c, "f2", logic.Zero)
	g1 := lit(c, "g1", logic.One)
	db.Add(f1, f2, 0, false, 2)
	db.Add(g1, f2, 0, true, 0)
	db.Add(f1, g1, 1, false, 1)

	s := db.Freeze()
	if s.Circuit() != c {
		t.Fatal("snapshot circuit identity")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if !s.Has(f1, f2, 0) || !s.Has(f2.Not(), f1.Not(), 0) {
		t.Fatal("Has must find both canonical and contrapositive forms")
	}
	if s.Has(f1, f2, 1) {
		t.Fatal("Has found an absent displacement")
	}
	if !s.IsCombinational(g1, f2, 0) || s.IsCombinational(f1, f2, 0) {
		t.Fatal("IsCombinational mismatch")
	}
	if s.DepthOf(f1, f2, 0) != 2 {
		t.Fatalf("DepthOf = %d, want 2", s.DepthOf(f1, f2, 0))
	}
	for i, r := range s.Relations() {
		comb, depth := s.RelationMeta(i)
		if comb != s.IsCombinational(r.A, r.B, int(r.Dt)) || depth != s.DepthOf(r.A, r.B, int(r.Dt)) {
			t.Fatalf("RelationMeta(%d) = (%v, %d) disagrees with the lookups for %v", i, comb, depth, r)
		}
	}
	if s.CrossFrame() != 1 {
		t.Fatalf("CrossFrame = %d, want 1", s.CrossFrame())
	}
	// Same-frame only: f1->f2 is FF-FF and sequential; g1->f2 is Gate-FF
	// but combinational, so the sequential-only count excludes it.
	if ffff, gateFF, gateGate := s.Counts(true); ffff != 1 || gateFF != 0 || gateGate != 0 {
		t.Fatalf("Counts(true) = (%d,%d,%d), want (1,0,0)", ffff, gateFF, gateGate)
	}
	if ffff, gateFF, gateGate := s.Counts(false); ffff != 1 || gateFF != 1 || gateGate != 0 {
		t.Fatalf("Counts(false) = (%d,%d,%d), want (1,1,0)", ffff, gateFF, gateGate)
	}
	if !s.HasNamed("f1", logic.One, "f2", logic.Zero, 0) ||
		s.HasNamed("nope", logic.One, "f2", logic.Zero, 0) {
		t.Fatal("HasNamed mismatch")
	}
	// f1=1 -> f2=0 makes (f1,f2)=(1,1) the one invalid state.
	inv := s.InvalidStates()
	if len(inv) != 1 || len(inv[0].Lits) != 2 ||
		!slices.Contains(inv[0].Lits, f1) || !slices.Contains(inv[0].Lits, f2.Not()) {
		t.Fatalf("InvalidStates = %v, want one pattern {f1=1, f2=1}", inv)
	}
}

func TestSnapshotSameFrameSorted(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	f1 := lit(c, "f1", logic.One)
	// Insert in non-sorted order; the snapshot index must come out sorted.
	db.Add(f1, lit(c, "g2", logic.One), 0, false, 0)
	db.Add(f1, lit(c, "f2", logic.Zero), 0, false, 0)
	db.Add(f1, lit(c, "g1", logic.Zero), 0, false, 0)
	s := db.Freeze()
	got := s.SameFrameImplied(f1)
	if len(got) != 3 {
		t.Fatalf("SameFrameImplied = %d entries, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].less(got[i]) {
			t.Fatalf("SameFrameImplied not sorted at %d: %v", i, got)
		}
	}
	if len(s.SameFrameImplied(lit(c, "a", logic.One))) != 0 {
		t.Fatal("unrelated literal must imply nothing")
	}
}

func TestSnapshotImmutableUnderLaterAdds(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 0)
	s := db.Freeze()
	var before strings.Builder
	if err := s.Serialize(&before); err != nil {
		t.Fatal(err)
	}
	db.Add(lit(c, "f2", logic.One), lit(c, "g1", logic.Zero), 0, true, 0)
	var after strings.Builder
	if err := s.Serialize(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatal("snapshot changed after a later builder Add")
	}
	if s.Len() != 1 || db.Freeze().Len() != 2 {
		t.Fatal("builder must have grown past the frozen snapshot")
	}
}

// TestSnapshotSerializeMatchesDB pins the serialized line format of a
// snapshot and checks it round-trips through LoadSnapshot.
func TestSnapshotSerializeMatchesDB(t *testing.T) {
	c := snapCircuit(t)
	db := NewDB(c)
	db.Add(lit(c, "f1", logic.One), lit(c, "f2", logic.Zero), 0, false, 2)
	db.Add(lit(c, "g1", logic.One), lit(c, "f2", logic.One), 1, true, 1)
	var fromSnap strings.Builder
	if err := db.Freeze().Serialize(&fromSnap); err != nil {
		t.Fatal(err)
	}
	const want = "f1 1 f2 0 0 false 2\ng1 1 f2 1 1 true 1\n"
	if fromSnap.String() != want {
		t.Fatalf("snapshot serialization:\n%s\nwant:\n%s", fromSnap.String(), want)
	}
	// And the round trip re-reads into an equal snapshot.
	s2, err := LoadSnapshot(c, strings.NewReader(fromSnap.String()))
	if err != nil {
		t.Fatal(err)
	}
	var again strings.Builder
	if err := s2.Serialize(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != want {
		t.Fatalf("round trip serialization:\n%s\nwant:\n%s", again.String(), want)
	}
}
