package atpg

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

func TestCombinationalDetection(t *testing.T) {
	b := netlist.NewBuilder("and")
	b.PI("a")
	b.PI("b")
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	res := Generate(c, fault.Fault{Node: c.MustLookup("a"), Stuck: logic.Zero},
		Options{BacktrackLimit: 10, Windows: []int{1}})
	if res.Outcome != Detected {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(res.Test) != 1 {
		t.Fatalf("test frames = %d", len(res.Test))
	}
	// The test must be (1,1).
	if res.Test[0][0] != logic.One || res.Test[0][1] != logic.One {
		t.Fatalf("test = %v", res.Test)
	}
	// Verify through the fault simulator.
	s := fault.NewSim(c)
	s.LoadSequence(res.Test, nil)
	if ok, _ := s.Detects(fault.Fault{Node: c.MustLookup("a"), Stuck: logic.Zero}); !ok {
		t.Fatal("generated test does not detect the fault")
	}
}

func TestCombinationalRedundantUntestable(t *testing.T) {
	// g = OR(a, t) with t = AND(b, ¬b): t s-a-0 is undetectable.
	b := netlist.NewBuilder("red")
	b.PI("a")
	b.PI("b")
	b.Gate("t", logic.OpAnd, netlist.P("b"), netlist.N("b"))
	b.Gate("g", logic.OpOr, netlist.P("a"), netlist.P("t"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	res := Generate(c, fault.Fault{Node: c.MustLookup("t"), Stuck: logic.Zero},
		Options{BacktrackLimit: 100, Windows: []int{1, 2}})
	if res.Outcome != Untestable {
		t.Fatalf("outcome = %v, want untestable", res.Outcome)
	}
}

func TestSequentialDetection(t *testing.T) {
	// Fault effect must cross a flip-flop: 2 frames needed.
	b := netlist.NewBuilder("seq")
	b.PI("a")
	b.Gate("g", logic.OpBuf, netlist.P("a"))
	b.DFF("f", netlist.P("g"), netlist.Clock{})
	b.Gate("h", logic.OpBuf, netlist.P("f"))
	b.PO("o", netlist.P("h"))
	c := b.MustBuild()
	f := fault.Fault{Node: c.MustLookup("g"), Stuck: logic.Zero}

	res := Generate(c, f, Options{BacktrackLimit: 50, Windows: []int{1}})
	if res.Outcome == Detected {
		t.Fatal("one frame cannot detect a fault behind a flip-flop")
	}
	res = Generate(c, f, Options{BacktrackLimit: 50, Windows: []int{1, 2}})
	if res.Outcome != Detected || res.Window != 2 {
		t.Fatalf("outcome = %v window %d", res.Outcome, res.Window)
	}
	s := fault.NewSim(c)
	s.LoadSequence(res.Test, nil)
	if ok, _ := s.Detects(f); !ok {
		t.Fatal("generated sequential test does not detect")
	}
}

func TestTieShortcutUntestable(t *testing.T) {
	c := circuits.Figure1()
	lr := learn.Learn(c, learn.Options{})
	var ties []learn.Tie
	ties = append(ties, lr.CombTies...)
	ties = append(ties, lr.SeqTies...)
	// G3 is tied to 0: s-a-0 is untestable by the tie shortcut.
	res := Generate(c, fault.Fault{Node: c.MustLookup("G3"), Stuck: logic.Zero},
		Options{BacktrackLimit: 10, Windows: []int{1}, Ties: ties})
	if res.Outcome != Untestable || res.Backtracks != 0 {
		t.Fatalf("tie shortcut failed: %v (%d backtracks)", res.Outcome, res.Backtracks)
	}
	// G15 (sequentially tied to 0): s-a-0 untestable as well.
	res = Generate(c, fault.Fault{Node: c.MustLookup("G15"), Stuck: logic.Zero},
		Options{BacktrackLimit: 10, Windows: []int{1}, Ties: ties})
	if res.Outcome != Untestable {
		t.Fatalf("G15 s-a-0 = %v", res.Outcome)
	}
}

func TestFigure1G3SA1Detectable(t *testing.T) {
	// G3 s-a-1 needs three frames: I2=0 captures D̄ into F2, then I5=1
	// routes it through G8 into F5, observed at the F5 output.
	c := circuits.Figure1()
	f := fault.Fault{Node: c.MustLookup("G3"), Stuck: logic.One}
	res := Generate(c, f, Options{BacktrackLimit: 1000, Windows: []int{1, 2, 3, 4}, FillSeed: 7})
	if res.Outcome != Detected {
		t.Fatalf("G3 s-a-1 = %v (backtracks %d)", res.Outcome, res.Backtracks)
	}
	s := fault.NewSim(c)
	s.LoadSequence(res.Test, nil)
	if ok, _ := s.Detects(f); !ok {
		t.Fatal("generated test does not detect G3 s-a-1")
	}
}

// figure1Plus adds the paper-style invalid-state consumer: a gate that can
// only be activated from the invalid state (F6=1, F4=1).
func figure1Plus(t *testing.T) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("fig1plus")
	for _, pi := range []string{"I1", "I2", "I3", "I4", "I5"} {
		b.PI(pi)
	}
	clk := netlist.Clock{}
	b.Gate("G1", logic.OpOr, netlist.P("F2"), netlist.P("G12"))
	b.Gate("G2", logic.OpAnd, netlist.P("F1"), netlist.P("G1"))
	b.Gate("G3", logic.OpAnd, netlist.P("I1"), netlist.N("I1"))
	b.Gate("G4", logic.OpAnd, netlist.P("F1"), netlist.P("F2"))
	b.Gate("G5", logic.OpOr, netlist.P("F3"), netlist.P("I4"))
	b.Gate("G6", logic.OpNor, netlist.P("I2"), netlist.P("F3"))
	b.Gate("G7", logic.OpAnd, netlist.P("I2"), netlist.P("I3"))
	b.Gate("G8", logic.OpAnd, netlist.P("F2"), netlist.P("I5"))
	b.Gate("G9", logic.OpOr, netlist.P("I2"), netlist.P("G2"))
	b.Gate("G10", logic.OpOr, netlist.P("I2"), netlist.P("G3"))
	b.Gate("G11", logic.OpOr, netlist.P("I2"), netlist.P("F3"))
	b.Gate("G12", logic.OpAnd, netlist.P("I1"), netlist.N("I1"))
	b.Gate("G13", logic.OpBuf, netlist.P("G7"))
	b.Gate("G14", logic.OpNor, netlist.P("F1"), netlist.P("F2"))
	b.Gate("G15", logic.OpNor, netlist.P("F3"), netlist.P("G14"))
	b.Gate("GX", logic.OpAnd, netlist.P("F6"), netlist.P("F4"))
	b.DFF("F1", netlist.P("G9"), clk)
	b.DFF("F2", netlist.P("G10"), clk)
	b.DFF("F3", netlist.P("G11"), clk)
	b.DFF("F4", netlist.P("G6"), clk)
	b.DFF("F5", netlist.P("G8"), clk)
	b.DFF("F6", netlist.P("G13"), clk)
	b.PO("O1", netlist.P("G4"))
	b.PO("O2", netlist.P("G5"))
	b.PO("O3", netlist.P("G15"))
	b.PO("O5", netlist.P("F5"))
	b.PO("OX", netlist.P("GX"))
	return b.MustBuild()
}

// TestInvalidStatePruning: GX s-a-0 requires the invalid state (F6=1,F4=1)
// to be excited; every mode must prove it untestable, and the learned
// relation F6=1 -> F4=0 must let the learning modes prove it with fewer
// backtracks than the no-learning baseline.
func TestInvalidStatePruning(t *testing.T) {
	c := figure1Plus(t)
	lr := learn.Learn(c, learn.Options{})
	if !lr.DB.HasNamed("F6", logic.One, "F4", logic.Zero, 0) {
		t.Fatal("setup: invalid-state relation not learned on the variant")
	}
	// The learner proves GX itself tied to 0 (it is fed by an invalid
	// state) — the strongest outcome: the fault is untestable by lookup.
	if v, ok := lr.TieOf(c.MustLookup("GX")); !ok || v != logic.Zero {
		t.Fatal("GX must be learned sequentially tied to 0")
	}
	res := Generate(c, fault.Fault{Node: c.MustLookup("GX"), Stuck: logic.Zero},
		Options{BacktrackLimit: 10, Windows: []int{1}, Ties: lr.SeqTies})
	if res.Outcome != Untestable || res.Backtracks != 0 {
		t.Fatalf("tie lookup should settle GX s-a-0 instantly: %v", res)
	}

	// To compare the *relation-driven* pruning across modes, exclude the
	// GX tie itself and make the search justify the invalid state.
	var ties []learn.Tie
	for _, tie := range append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...) {
		if c.NameOf(tie.Node) != "GX" {
			ties = append(ties, tie)
		}
	}
	gx := fault.Fault{Node: c.MustLookup("GX"), Stuck: logic.Zero}

	backtracks := map[Mode]int{}
	for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
		res := Generate(c, gx, Options{
			BacktrackLimit: 100000,
			Windows:        []int{1, 2, 3, 4},
			Mode:           mode,
			DB:             lr.DB,
			Ties:           ties,
		})
		if res.Outcome != Untestable {
			t.Fatalf("mode %v: outcome %v, want untestable", mode, res.Outcome)
		}
		backtracks[mode] = res.Backtracks
	}
	if backtracks[ModeKnown] > backtracks[ModeNoLearning] {
		t.Errorf("known-value mode used more backtracks (%d) than no learning (%d)",
			backtracks[ModeKnown], backtracks[ModeNoLearning])
	}
	if backtracks[ModeForbidden] > backtracks[ModeNoLearning] {
		t.Errorf("forbidden-value mode used more backtracks (%d) than no learning (%d)",
			backtracks[ModeForbidden], backtracks[ModeNoLearning])
	}
	t.Logf("backtracks: none=%d forbidden=%d known=%d",
		backtracks[ModeNoLearning], backtracks[ModeForbidden], backtracks[ModeKnown])
}

// TestFigure2ATPGDemo reproduces the paper's Section 4 demonstration: the
// s-a-1 fault on G9 is tested via G9=0, whose justification the learned
// relation G9=0 -> F2=0 short-circuits.
func TestFigure2ATPGDemo(t *testing.T) {
	c := circuits.Figure2()
	lr := learn.Learn(c, learn.Options{})
	g9sa1 := fault.Fault{Node: c.MustLookup("G9"), Stuck: logic.One}

	results := map[Mode]Result{}
	for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
		res := Generate(c, g9sa1, Options{
			BacktrackLimit: 1000,
			Windows:        []int{1, 2, 3},
			Mode:           mode,
			DB:             lr.DB,
			FillSeed:       3,
		})
		if res.Outcome != Detected {
			t.Fatalf("mode %v: %v", mode, res.Outcome)
		}
		s := fault.NewSim(c)
		s.LoadSequence(res.Test, nil)
		if ok, _ := s.Detects(g9sa1); !ok {
			t.Fatalf("mode %v: test not confirmed by fault simulation", mode)
		}
		results[mode] = res
	}
	if results[ModeKnown].Backtracks > results[ModeNoLearning].Backtracks {
		t.Errorf("known mode: %d backtracks > baseline %d",
			results[ModeKnown].Backtracks, results[ModeNoLearning].Backtracks)
	}
}

func TestDriverFigure2(t *testing.T) {
	c := circuits.Figure2()
	lr := learn.Learn(c, learn.Options{})
	var ties []learn.Tie
	ties = append(ties, lr.CombTies...)
	ties = append(ties, lr.SeqTies...)
	for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
		res := Run(c, RunOptions{ATPG: Options{
			BacktrackLimit: 100,
			Windows:        []int{1, 2, 4},
			Mode:           mode,
			DB:             lr.DB,
			Ties:           ties,
			FillSeed:       11,
		}})
		if res.VerifyFailures != 0 {
			t.Fatalf("mode %v: %d verification failures", mode, res.VerifyFailures)
		}
		if res.Detected+res.Untestable+res.Aborted != res.Total {
			t.Fatalf("mode %v: counts inconsistent: %+v", mode, res)
		}
		if res.Detected == 0 {
			t.Fatalf("mode %v: nothing detected", mode)
		}
		if res.Coverage() <= 0 || res.TestCoverage() < res.Coverage() {
			t.Fatalf("mode %v: coverage accounting broken: %+v", mode, res)
		}
	}
}

// TestDriverRandomSoundness: on random circuits, every emitted test must be
// confirmed by the independent fault simulator (VerifyFailures == 0), in
// every mode.
func TestDriverRandomSoundness(t *testing.T) {
	for _, seed := range []uint64{3, 17, 91} {
		c := randCircuit(seed)
		lr := learn.Learn(c, learn.Options{MaxFrames: 10})
		var ties []learn.Tie
		ties = append(ties, lr.CombTies...)
		ties = append(ties, lr.SeqTies...)
		for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
			res := Run(c, RunOptions{ATPG: Options{
				BacktrackLimit: 30,
				Windows:        []int{1, 2, 4},
				Mode:           mode,
				DB:             lr.DB,
				Ties:           ties,
				FillSeed:       seed + uint64(mode),
			}})
			if res.VerifyFailures != 0 {
				t.Fatalf("seed %d mode %v: %d verify failures", seed, mode, res.VerifyFailures)
			}
			if res.Detected+res.Untestable+res.Aborted != res.Total {
				t.Fatalf("seed %d mode %v: inconsistent counts %+v", seed, mode, res)
			}
		}
	}
}

func randCircuit(seed uint64) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("ar%d", seed))
	var names []string
	for i := 0; i < 5; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < 6; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNand, logic.OpNor, logic.OpNot}
	for i := 0; i < 40; i++ {
		n := fmt.Sprintf("g%d", i)
		op := ops[r.Intn(len(ops))]
		arity := 2
		if op == logic.OpNot {
			arity = 1
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
	for i := 0; i < 6; i++ {
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(fmt.Sprintf("g%d", r.Intn(40))), netlist.Clock{})
	}
	b.PO("o1", netlist.P("g39"))
	b.PO("o2", netlist.P("g38"))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestModeString(t *testing.T) {
	if ModeNoLearning.String() != "nolearn" || ModeForbidden.String() != "forbidden" || ModeKnown.String() != "known" {
		t.Fatal("mode names")
	}
	if Detected.String() != "detected" || Untestable.String() != "untestable" || Aborted.String() != "aborted" {
		t.Fatal("outcome names")
	}
}

// TestCrossFrameRelations: on Figure 1, whose learning yields cross-frame
// relations that PODEM does not apply, whole-list runs in both learned
// modes stay sound and consistent.
func TestCrossFrameRelations(t *testing.T) {
	c := circuits.Figure1()
	lr := learn.Learn(c, learn.Options{})
	if lr.DB.CrossFrame() == 0 {
		t.Fatal("setup: no cross-frame relations learned on Figure 1")
	}
	var ties []learn.Tie
	ties = append(ties, lr.CombTies...)
	ties = append(ties, lr.SeqTies...)
	faults, _ := fault.Collapse(c)
	for _, mode := range []Mode{ModeForbidden, ModeKnown} {
		res := Run(c, RunOptions{
			Faults: faults,
			ATPG: Options{
				BacktrackLimit: 200,
				Windows:        []int{1, 2, 4},
				Mode:           mode,
				DB:             lr.DB,
				Ties:           ties,
				FillSeed:       5,
			},
		})
		if res.VerifyFailures != 0 {
			t.Fatalf("mode=%v: %d verify failures", mode, res.VerifyFailures)
		}
		if res.Detected+res.Untestable+res.Aborted != res.Total {
			t.Fatalf("mode=%v: inconsistent %+v", mode, res)
		}
	}
}

// TestPreUntestable: externally proven untestable faults are counted
// without search and never retargeted.
func TestPreUntestable(t *testing.T) {
	c := circuits.Figure1()
	faults, _ := fault.Collapse(c)
	pre := []fault.Fault{faults[0], faults[1]}
	res := Run(c, RunOptions{
		Faults:        faults[:6],
		PreUntestable: pre,
		ATPG:          Options{BacktrackLimit: 20, Windows: []int{1, 2}},
	})
	if res.Untestable < 2 {
		t.Fatalf("pre-untestable not counted: %+v", res)
	}
	if res.Detected+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("inconsistent counts: %+v", res)
	}
}

func TestCoverageAccounting(t *testing.T) {
	r := RunResult{Total: 100, Detected: 60, Untestable: 20}
	if r.Coverage() != 0.6 {
		t.Errorf("Coverage = %v", r.Coverage())
	}
	if r.TestCoverage() != 0.75 {
		t.Errorf("TestCoverage = %v", r.TestCoverage())
	}
	zero := RunResult{}
	if zero.Coverage() != 0 || zero.TestCoverage() != 0 {
		t.Error("zero-division guards broken")
	}
	allUnt := RunResult{Total: 5, Untestable: 5}
	if allUnt.TestCoverage() != 0 {
		t.Error("all-untestable TestCoverage must be 0")
	}
}
