package learn

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// ffRelations collects the same-frame FF-FF relations as "A=v->B=w" strings.
func ffRelations(res *Result) map[string]bool {
	c := res.DB.Circuit()
	out := map[string]bool{}
	for _, r := range res.DB.Relations() {
		if r.Dt != 0 || res.DB.KindOf(r) != imply.FFFF {
			continue
		}
		out[fmt.Sprintf("%s=%s->%s=%s",
			c.NameOf(r.A.Node), r.A.Val, c.NameOf(r.B.Node), r.B.Val)] = true
	}
	return out
}

// canon maps a relation string to its stored canonical form so the test can
// compare against the paper's spelling regardless of direction.
func hasFF(res *Result, a string, av logic.V, b string, bv logic.V) bool {
	return res.DB.HasNamed(a, av, b, bv, 0)
}

// TestTable2SingleNode asserts the paper's Table 2 first column: exactly
// four invalid-state relations from single-node learning on Figure 1.
func TestTable2SingleNode(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{SingleNodeOnly: true, SkipComb: true})
	want := [][2]string{{"F6", "F1"}, {"F6", "F2"}, {"F6", "F3"}, {"F6", "F4"}}
	vals := [][2]logic.V{
		{logic.One, logic.One}, {logic.One, logic.One},
		{logic.One, logic.One}, {logic.One, logic.Zero},
	}
	for i, w := range want {
		if !hasFF(res, w[0], vals[i][0], w[1], vals[i][1]) {
			t.Errorf("missing single-node relation %s=%v -> %s=%v", w[0], vals[i][0], w[1], vals[i][1])
		}
	}
	got := ffRelations(res)
	if len(got) != 4 {
		t.Errorf("single-node FF-FF relations = %d, want 4: %v", len(got), got)
	}
	ffff, _, _ := res.DB.Counts(true)
	if ffff != 4 {
		t.Errorf("Counts FFFF = %d, want 4", ffff)
	}
}

// TestTable2Full asserts the complete Table 2 on the reconstruction: the 4
// single-node relations, the 8 additional multiple-node relations, and the
// 2 gate-equivalence-column relations (which our reconstruction reaches
// through the tie constants — deviation D4 of circuits.Figure1).
func TestTable2Full(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{})
	type rel struct {
		a  string
		av logic.V
		b  string
		bv logic.V
	}
	want := []rel{
		// Single-node column.
		{"F6", logic.One, "F4", logic.Zero},
		{"F6", logic.One, "F3", logic.One},
		{"F6", logic.One, "F2", logic.One},
		{"F6", logic.One, "F1", logic.One},
		// Additional multiple-node column.
		{"F1", logic.Zero, "F2", logic.Zero},
		{"F1", logic.Zero, "F5", logic.Zero},
		{"F3", logic.Zero, "F2", logic.Zero},
		{"F3", logic.Zero, "F4", logic.One},
		{"F3", logic.Zero, "F5", logic.Zero},
		{"F4", logic.One, "F2", logic.Zero},
		{"F4", logic.One, "F5", logic.Zero},
		{"F4", logic.One, "F3", logic.Zero},
		// Additional gate-equivalence column.
		{"F3", logic.Zero, "F1", logic.Zero},
		{"F4", logic.One, "F1", logic.Zero},
	}
	for _, w := range want {
		if !hasFF(res, w.a, w.av, w.b, w.bv) {
			t.Errorf("missing relation %s=%v -> %s=%v", w.a, w.av, w.b, w.bv)
		}
	}
	got := ffRelations(res)
	if len(got) != len(want) {
		t.Errorf("FF-FF relations = %d, want %d:\n%v", len(got), len(want), got)
	}
	// None of the Table 2 relations is combinationally derivable.
	for _, w := range want {
		an, bn := c.MustLookup(w.a), c.MustLookup(w.b)
		if res.DB.IsCombinational(imply.Lit{Node: an, Val: w.av}, imply.Lit{Node: bn, Val: w.bv}, 0) {
			t.Errorf("relation %s=%v -> %s=%v wrongly marked combinational", w.a, w.av, w.b, w.bv)
		}
	}
}

// TestFigure1Ties asserts the tie results on Figure 1: G3 (and its twin
// G12, deviation D3) combinationally tied to 0; G15 sequentially tied to 0
// exactly as the paper's Section 3.2 derives.
func TestFigure1Ties(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{})
	comb := map[string]bool{}
	for _, tie := range res.CombTies {
		if tie.Val != logic.Zero {
			t.Errorf("comb tie %s has value %v, want 0", c.NameOf(tie.Node), tie.Val)
		}
		comb[c.NameOf(tie.Node)] = true
	}
	if !comb["G3"] || !comb["G12"] || len(comb) != 2 {
		t.Errorf("comb ties = %v, want {G3, G12}", comb)
	}
	seq := map[string]bool{}
	for _, tie := range res.SeqTies {
		seq[c.NameOf(tie.Node)] = true
		if tie.Val != logic.Zero {
			t.Errorf("seq tie %s has value %v, want 0", c.NameOf(tie.Node), tie.Val)
		}
	}
	if !seq["G15"] {
		t.Errorf("seq ties = %v, want G15 included", seq)
	}
	if v, ok := res.TieOf(c.MustLookup("G15")); !ok || v != logic.Zero {
		t.Error("TieOf(G15) broken")
	}
}

// TestG15TieNeedsTies: without tie constants the G15 conflict cannot be
// derived ("this gate would not have been learned to be a tie without
// taking advantage of the previously learned tie gate G3...").
func TestG15TieNeedsTies(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{DisableTies: true, SkipComb: true})
	for _, tie := range res.SeqTies {
		if c.NameOf(tie.Node) == "G15" {
			t.Fatal("G15 tie must not be learnable without tie constants")
		}
	}
	res = Learn(c, Options{SkipComb: true})
	found := false
	for _, tie := range res.SeqTies {
		if c.NameOf(tie.Node) == "G15" {
			found = true
		}
	}
	if !found {
		t.Fatal("G15 tie lost")
	}
}

// TestAblationTies: the multiple-node relations F3=0→F2=0 etc. require the
// G3 tie (the paper: "the fact that gate G3 is tied to a 0 is taken
// advantage of during simulation").
func TestAblationTies(t *testing.T) {
	c := circuits.Figure1()
	with := Learn(c, Options{SkipComb: true})
	without := Learn(c, Options{DisableTies: true, SkipComb: true})
	if !hasFF(with, "F3", logic.Zero, "F2", logic.Zero) {
		t.Fatal("F3=0->F2=0 must be learned with ties")
	}
	if hasFF(without, "F3", logic.Zero, "F2", logic.Zero) {
		t.Fatal("F3=0->F2=0 must not be learnable without ties")
	}
	if len(ffRelations(without)) >= len(ffRelations(with)) {
		t.Fatal("tie ablation must lose relations")
	}
}

// TestEquivalenceIdentified: the G2 ≡ G4 class from the paper.
func TestEquivalenceIdentified(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{})
	g2, g4 := c.MustLookup("G2"), c.MustLookup("G4")
	found := false
	for _, cls := range res.EquivClasses {
		members := map[netlist.NodeID]bool{cls.Rep: true}
		for _, m := range cls.Members {
			members[m] = true
		}
		if members[g2] && members[g4] {
			found = true
		}
	}
	if !found {
		t.Fatal("G2 ≡ G4 not identified during learning")
	}
}

// TestFigure2MultipleNodeRelation asserts the Section 3.1 highlight: the
// relation G9=0 → F2=0 is extracted by multiple-node learning and is not
// combinationally derivable (Figure 2's whole point).
func TestFigure2MultipleNodeRelation(t *testing.T) {
	c := circuits.Figure2()
	res := Learn(c, Options{})
	if !res.DB.HasNamed("G9", logic.Zero, "F2", logic.Zero, 0) {
		t.Fatal("G9=0 -> F2=0 not learned")
	}
	g9 := imply.Lit{Node: c.MustLookup("G9"), Val: logic.Zero}
	f2 := imply.Lit{Node: c.MustLookup("F2"), Val: logic.Zero}
	if res.DB.IsCombinational(g9, f2, 0) {
		t.Fatal("G9=0 -> F2=0 must not be combinationally derivable")
	}
	// The companion necessary assignments.
	if !res.DB.HasNamed("G9", logic.Zero, "F4", logic.Zero, 0) ||
		!res.DB.HasNamed("G9", logic.Zero, "F5", logic.Zero, 0) {
		t.Error("G9=0 must also imply F4=0 and F5=0")
	}
	// Single-node learning alone cannot find it.
	single := Learn(c, Options{SingleNodeOnly: true, SkipComb: true})
	if single.DB.HasNamed("G9", logic.Zero, "F2", logic.Zero, 0) {
		t.Fatal("G9=0 -> F2=0 must require multiple-node learning")
	}
}

// TestCombinationalLearner checks the backward-implication engine through
// learned relations and a combinational tie.
func TestCombinationalLearner(t *testing.T) {
	b := netlist.NewBuilder("comb")
	b.PI("a")
	b.PI("x")
	b.Gate("g", logic.OpAnd, netlist.P("q1"), netlist.P("q2"))
	b.Gate("h", logic.OpOr, netlist.P("g"), netlist.P("a"))
	b.Gate("t0", logic.OpAnd, netlist.P("x"), netlist.N("x"))
	b.DFF("q1", netlist.P("h"), netlist.Clock{})
	b.DFF("q2", netlist.P("t0"), netlist.Clock{})
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	db := imply.NewDB(c)
	ties := CombinationalParallel(c, db, nil, 1)
	s := db.Freeze()
	// g=1 implies (backward) q1=1 and q2=1: gate-FF relations.
	if !s.HasNamed("g", logic.One, "q1", logic.One, 0) {
		t.Error("missing backward implication g=1 -> q1=1")
	}
	if !s.HasNamed("g", logic.One, "q2", logic.One, 0) {
		t.Error("missing backward implication g=1 -> q2=1")
	}
	g1 := imply.Lit{Node: c.MustLookup("g"), Val: logic.One}
	q1 := imply.Lit{Node: c.MustLookup("q1"), Val: logic.One}
	if !s.IsCombinational(g1, q1, 0) {
		t.Error("comb learner output must be flagged combinational")
	}
	// t0 = AND(x, ¬x) conflicts for injection 1: combinational tie to 0.
	foundTie := false
	for _, tie := range ties {
		if c.NameOf(tie.Node) == "t0" && tie.Val == logic.Zero {
			foundTie = true
		}
	}
	if !foundTie {
		t.Errorf("comb tie t0=0 not found: %v", ties)
	}
}

// TestKeepRows: rows are retained on request, two per stem.
func TestKeepRows(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{SingleNodeOnly: true, KeepRows: true, SkipComb: true})
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (two per stem)", len(res.Rows))
	}
	res = Learn(c, Options{SingleNodeOnly: true, SkipComb: true})
	if len(res.Rows) != 0 {
		t.Fatal("rows retained without KeepRows")
	}
}

func TestStats(t *testing.T) {
	c := circuits.Figure1()
	res := Learn(c, Options{})
	s := res.Stats
	if s.Stems != 5 {
		t.Errorf("Stems = %d, want 5", s.Stems)
	}
	if s.Sims < 10 || s.Targets == 0 || s.Frames == 0 {
		t.Errorf("stats look empty: %+v", s)
	}
	if s.Conflicts == 0 {
		t.Error("G15 tie requires at least one conflict")
	}
	if s.Duration <= 0 {
		t.Error("duration not measured")
	}
}

// randCircuit builds a deterministic random sequential circuit with
// self-loops, used by the soundness property tests.
func randCircuit(seed uint64, nPIs, nGates, nFFs int) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("rand%d", seed))
	var names []string
	for i := 0; i < nPIs; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < nFFs; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNand, logic.OpNor, logic.OpNot, logic.OpXor}
	for i := 0; i < nGates; i++ {
		n := fmt.Sprintf("g%d", i)
		op := ops[r.Intn(len(ops))]
		arity := 2
		if op == logic.OpNot {
			arity = 1
		} else if r.Intn(4) == 0 {
			arity = 3
		}
		refs := make([]netlist.Ref, 0, arity)
		for k := 0; k < arity; k++ {
			name := names[r.Intn(len(names))]
			if r.Intn(4) == 0 {
				refs = append(refs, netlist.N(name))
			} else {
				refs = append(refs, netlist.P(name))
			}
		}
		b.Gate(n, op, refs...)
		names = append(names, n)
	}
	for i := 0; i < nFFs; i++ {
		src := fmt.Sprintf("g%d", r.Intn(nGates))
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(src), netlist.Clock{})
	}
	b.PO("out", netlist.P(fmt.Sprintf("g%d", nGates-1)))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// checkSoundness replays random binary runs and verifies every learned
// same-frame relation and tie. warmup frames are discarded (relations need
// bounded history; ties may be c-cycle).
func checkSoundness(t *testing.T, c *netlist.Circuit, res *Result, seed uint64, runs, frames, warmup int, update func(r *logic.Rand64) []bool) {
	t.Helper()
	rels := res.DB.Relations()
	r := logic.NewRand64(seed)
	f := sim.NewFuncSim(c)
	for run := 0; run < runs; run++ {
		init := make([]logic.V, len(c.Seqs))
		for i := range init {
			init[i] = logic.FromBool(r.Bool())
		}
		f.Reset(init)
		// history[fr][node] for cross-frame relation checking; cross-frame
		// relations only apply under uniform clocking (update == nil): a
		// frame displacement presumes the element's own clock ticked.
		var history [][]logic.V
		for fr := 0; fr < frames; fr++ {
			pis := make([]logic.V, len(c.PIs))
			for i := range pis {
				pis[i] = logic.FromBool(r.Bool())
			}
			var mask []bool
			if update != nil {
				mask = update(r)
			}
			f.StepPartial(pis, mask)
			snap := make([]logic.V, c.NumNodes())
			for id := range snap {
				snap[id] = f.Value(netlist.NodeID(id))
			}
			history = append(history, snap)
			if fr < warmup {
				continue
			}
			for _, rel := range rels {
				switch {
				case rel.Dt == 0:
					if f.Value(rel.A.Node) == rel.A.Val && f.Value(rel.B.Node) != rel.B.Val {
						t.Fatalf("run %d frame %d: relation %s violated (A holds, B=%v)",
							run, fr, res.DB.FormatRelation(rel), f.Value(rel.B.Node))
					}
				case update == nil && rel.Dt > 0 && fr-int(rel.Dt) >= warmup:
					// A at frame fr-Dt must imply B at frame fr.
					at := history[fr-int(rel.Dt)]
					if at[rel.A.Node] == rel.A.Val && f.Value(rel.B.Node) != rel.B.Val {
						t.Fatalf("run %d frame %d: cross relation %s violated",
							run, fr, res.DB.FormatRelation(rel))
					}
				}
			}
			for n, v := range res.Ties {
				if got := f.Value(n); got != v {
					t.Fatalf("run %d frame %d: tie %s=%v violated (got %v)",
						run, fr, c.NameOf(n), v, got)
				}
			}
		}
	}
}

// TestSoundnessRandomCircuits: everything learned must hold in random
// binary executions from random (possibly unreachable) initial states.
func TestSoundnessRandomCircuits(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		c := randCircuit(seed, 5, 50, 8)
		res := Learn(c, Options{MaxFrames: 12})
		checkSoundness(t, c, res, seed*3+1, 6, 40, 14, nil)
	}
}

// TestSoundnessSetReset: circuits with unconstrained set/reset whose
// lines fire randomly; the Section 3.3.3 gating must keep everything valid.
func TestSoundnessSetReset(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		c := srRandCircuit(seed)
		res := Learn(c, Options{MaxFrames: 10})
		checkSoundness(t, c, res, seed+100, 6, 40, 12, nil)
	}
}

// srRandCircuit attaches unconstrained set/reset lines to a random circuit.
func srRandCircuit(seed uint64) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("sr%d", seed))
	var names []string
	for i := 0; i < 6; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNor, logic.OpNot}
	for i := 0; i < 30; i++ {
		n := fmt.Sprintf("g%d", i)
		op := ops[r.Intn(len(ops))]
		arity := 2
		if op == logic.OpNot {
			arity = 1
		}
		refs := make([]netlist.Ref, 0, arity)
		for k := 0; k < arity; k++ {
			refs = append(refs, netlist.P(names[r.Intn(len(names))]))
		}
		b.Gate(n, op, refs...)
		names = append(names, n)
	}
	for i := 0; i < 6; i++ {
		ff := fmt.Sprintf("f%d", i)
		b.DFF(ff, netlist.P(fmt.Sprintf("g%d", r.Intn(30))), netlist.Clock{})
		switch i % 3 {
		case 0:
			b.SetNet(ff, netlist.P("i0")) // unconstrained set
		case 1:
			b.ResetNet(ff, netlist.P("i1")) // unconstrained reset
		}
	}
	b.PO("out", netlist.P("g29"))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TestSoundnessMultiClock: two clock domains advancing at random
// class-consistent rates; per-class learning must stay valid.
func TestSoundnessMultiClock(t *testing.T) {
	for _, seed := range []uint64{5, 21} {
		c := multiClockCircuit(seed)
		res := Learn(c, Options{MaxFrames: 10})
		if len(c.Classes()) != 2 {
			t.Fatalf("want 2 classes, got %d", len(c.Classes()))
		}
		r0 := logic.NewRand64(seed + 55)
		classOf := make([]int32, len(c.Seqs))
		for i, id := range c.Seqs {
			classOf[i] = c.Nodes[id].Seq.Class
		}
		update := func(r *logic.Rand64) []bool {
			on0, on1 := r.Bool(), r.Bool()
			mask := make([]bool, len(classOf))
			for i, cl := range classOf {
				if cl == 0 {
					mask[i] = on0
				} else {
					mask[i] = on1
				}
			}
			return mask
		}
		_ = r0
		checkSoundness(t, c, res, seed+9, 6, 50, 16, update)
	}
}

func multiClockCircuit(seed uint64) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("mc%d", seed))
	var names []string
	for i := 0; i < 5; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < 8; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNor, logic.OpNand}
	for i := 0; i < 40; i++ {
		n := fmt.Sprintf("g%d", i)
		op := ops[r.Intn(len(ops))]
		refs := []netlist.Ref{
			netlist.P(names[r.Intn(len(names))]),
			netlist.P(names[r.Intn(len(names))]),
		}
		b.Gate(n, op, refs...)
		names = append(names, n)
	}
	for i := 0; i < 8; i++ {
		dom := int32(i % 2)
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(fmt.Sprintf("g%d", r.Intn(40))), netlist.Clock{Domain: dom})
	}
	b.PO("out", netlist.P("g39"))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// TestMultiClockClassSeparation: relations must never link sequential
// elements of different classes (they would be unsound under independent
// clocks).
func TestMultiClockClassSeparation(t *testing.T) {
	c := multiClockCircuit(5)
	res := Learn(c, Options{MaxFrames: 10})
	for _, rel := range res.DB.Relations() {
		if rel.Dt != 0 {
			continue
		}
		na, nb := &c.Nodes[rel.A.Node], &c.Nodes[rel.B.Node]
		if na.Seq != nil && nb.Seq != nil && na.Seq.Class != nb.Seq.Class {
			t.Fatalf("cross-class relation %s", res.DB.FormatRelation(rel))
		}
	}
}
