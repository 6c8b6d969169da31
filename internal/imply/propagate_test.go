package imply

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// TestPropagatorRelationsAndUndo: a snapshot's same-frame relations are
// asserted on every assignment (and their consequences propagated), the
// ties settle once into the base frame, and each Run starts from that base
// frame again.
func TestPropagatorRelationsAndUndo(t *testing.T) {
	b := netlist.NewBuilder("pr")
	b.PI("a")
	b.PI("b")
	b.Gate("g", logic.OpAnd, netlist.P("f1"), netlist.P("b"))
	b.Gate("h", logic.OpXor, netlist.P("a"), netlist.P("b"))
	b.DFF("f1", netlist.P("g"), netlist.Clock{})
	b.DFF("f2", netlist.P("h"), netlist.Clock{})
	b.PO("o", netlist.P("f2"))
	c := b.MustBuild()
	db := NewDB(c)
	db.Add(lit(c, "f2", logic.One), lit(c, "f1", logic.Zero), 0, false, 1)
	snap := db.Freeze()
	node := func(name string) netlist.NodeID { return c.MustLookup(name) }

	tieVal := make([]logic.V, c.NumNodes())
	tieVal[node("b")] = logic.One
	for _, tc := range []struct {
		db    *Snapshot
		wantG logic.V
	}{{nil, logic.X}, {snap, logic.Zero}} {
		p := NewPropagator(c, tieVal, tc.db)
		if p.BaseConflict() || len(p.BaseImps()) != 0 {
			t.Fatalf("b=1 alone: conflict %v, implies %v", p.BaseConflict(), p.BaseImps())
		}
		// h=0 with b=1 completes a=1 by parity; with the relation, f2=1
		// asserts f1=0 and so g=0.
		if !p.Run(node("f2"), logic.One) {
			t.Fatal("f2=1 conflicts")
		}
		if got := p.Values()[node("g")]; got != tc.wantG {
			t.Fatalf("relations %v: g=%v after f2=1, want %v", tc.db != nil, got, tc.wantG)
		}
		if !p.Run(node("h"), logic.Zero) {
			t.Fatal("h=0 conflicts")
		}
		v := p.Values()
		if v[node("a")] != logic.One || v[node("f2")] != logic.X || v[node("g")] != logic.X || v[node("b")] != logic.One {
			t.Fatalf("after h=0: a=%v f2=%v g=%v b=%v; want a=1 by parity, f2 and g undone, b tied",
				v[node("a")], v[node("f2")], v[node("g")], v[node("b")])
		}
		if p.Run(node("b"), logic.Zero) {
			t.Fatal("b=0 against the tie b=1 must conflict")
		}
	}
}
