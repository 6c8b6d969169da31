package fault

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

func TestUniverse(t *testing.T) {
	c := circuits.Figure2()
	u := Universe(c)
	if len(u) != 2*c.NumNodes() {
		t.Fatalf("universe = %d, want %d", len(u), 2*c.NumNodes())
	}
}

func TestCollapseRules(t *testing.T) {
	b := netlist.NewBuilder("col")
	b.PI("a")
	b.PI("b")
	b.Gate("n", logic.OpNot, netlist.P("a"))
	b.Gate("g", logic.OpAnd, netlist.P("n"), netlist.P("b"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	reps, rep := Collapse(c)
	a, n, g := c.MustLookup("a"), c.MustLookup("n"), c.MustLookup("g")
	// a s-a-0 ≡ n s-a-1 (NOT), and n s-a-0 ≡ g s-a-0 (AND controlling).
	if rep[Fault{a, logic.Zero}] != rep[Fault{n, logic.One}] {
		t.Error("NOT equivalence missing")
	}
	if rep[Fault{n, logic.Zero}] != rep[Fault{g, logic.Zero}] {
		t.Error("AND controlling equivalence missing")
	}
	// Transitive: a s-a-1 ≡ n s-a-0 ≡ g s-a-0.
	if rep[Fault{a, logic.One}] != rep[Fault{g, logic.Zero}] {
		t.Error("transitive collapse missing")
	}
	// Non-controlling values are not collapsed.
	if rep[Fault{n, logic.One}] == rep[Fault{g, logic.One}] {
		t.Error("non-controlling value wrongly collapsed")
	}
	if len(reps) >= len(Universe(c)) {
		t.Error("collapse did not shrink the universe")
	}
}

func TestCollapseStopsAtStems(t *testing.T) {
	b := netlist.NewBuilder("stem")
	b.PI("a")
	b.Gate("g1", logic.OpBuf, netlist.P("a"))
	b.Gate("g2", logic.OpBuf, netlist.P("a")) // a is a stem
	b.PO("o1", netlist.P("g1"))
	b.PO("o2", netlist.P("g2"))
	c := b.MustBuild()
	_, rep := Collapse(c)
	a, g1 := c.MustLookup("a"), c.MustLookup("g1")
	if rep[Fault{a, logic.Zero}] == rep[Fault{g1, logic.Zero}] {
		t.Error("collapse must not cross fanout stems")
	}
}

// TestCollapseDetectionEquivalence: faults in one equivalence class must
// have identical detection behavior under exhaustive simulation.
func TestCollapseDetectionEquivalence(t *testing.T) {
	c := circuits.Figure2()
	_, rep := Collapse(c)

	// Group faults by representative.
	groups := map[Fault][]Fault{}
	for _, f := range Universe(c) {
		groups[rep[f]] = append(groups[rep[f]], f)
	}
	// Exhaustive-ish: 20 random sequences of 4 frames; within each group
	// the detection outcome must agree on every sequence.
	r := logic.NewRand64(77)
	s := NewSim(c)
	for seq := 0; seq < 20; seq++ {
		vectors := randVectors(r, len(c.PIs), 4)
		s.LoadSequence(vectors, nil)
		for repF, members := range groups {
			if len(members) < 2 {
				continue
			}
			want, _ := s.Detects(repF)
			for _, m := range members {
				if got, _ := s.Detects(m); got != want {
					t.Fatalf("seq %d: fault %s detection %v but rep %s %v",
						seq, Name(c, m), got, Name(c, repF), want)
				}
			}
		}
	}
}

func randVectors(r *logic.Rand64, pis, frames int) [][]logic.V {
	out := make([][]logic.V, frames)
	for t := range out {
		vec := make([]logic.V, pis)
		for i := range vec {
			vec[i] = logic.FromBool(r.Bool())
		}
		out[t] = vec
	}
	return out
}

func TestDetectsSimple(t *testing.T) {
	// o = AND(a, b): a s-a-0 is detected by (1,1); not by (0,1).
	b := netlist.NewBuilder("and")
	b.PI("a")
	b.PI("b")
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	s := NewSim(c)
	a := c.MustLookup("a")

	s.LoadSequence([][]logic.V{{logic.One, logic.One}}, nil)
	if ok, fr := s.Detects(Fault{a, logic.Zero}); !ok || fr != 0 {
		t.Fatalf("a/0 not detected by (1,1): %v %d", ok, fr)
	}
	s.LoadSequence([][]logic.V{{logic.Zero, logic.One}}, nil)
	if ok, _ := s.Detects(Fault{a, logic.Zero}); ok {
		t.Fatal("a/0 wrongly detected by (0,1)")
	}
	if ok, _ := s.Detects(Fault{a, logic.One}); !ok {
		t.Fatal("a/1 not detected by (0,1)")
	}
}

func TestDetectsSequential(t *testing.T) {
	// Fault effect must travel through a flip-flop to a later frame.
	b := netlist.NewBuilder("seqdet")
	b.PI("a")
	b.Gate("g", logic.OpBuf, netlist.P("a"))
	b.DFF("f", netlist.P("g"), netlist.Clock{})
	b.Gate("h", logic.OpBuf, netlist.P("f"))
	b.PO("o", netlist.P("h"))
	c := b.MustBuild()
	s := NewSim(c)
	g := c.MustLookup("g")

	s.LoadSequence([][]logic.V{{logic.One}, {logic.Zero}}, nil)
	ok, fr := s.Detects(Fault{g, logic.Zero})
	if !ok || fr != 1 {
		t.Fatalf("g/0 must be detected in frame 1, got %v %d", ok, fr)
	}
	// One frame is not enough (effect still inside the FF).
	s.LoadSequence([][]logic.V{{logic.One}}, nil)
	if ok, _ := s.Detects(Fault{g, logic.Zero}); ok {
		t.Fatal("g/0 cannot be detected within a single frame")
	}
}

func TestFaultOnFlipFlop(t *testing.T) {
	b := netlist.NewBuilder("ffault")
	b.PI("a")
	b.DFF("f", netlist.P("a"), netlist.Clock{})
	b.PO("o", netlist.P("f"))
	c := b.MustBuild()
	s := NewSim(c)
	f := c.MustLookup("f")
	s.LoadSequence([][]logic.V{{logic.One}, {logic.One}}, nil)
	if ok, _ := s.Detects(Fault{f, logic.Zero}); !ok {
		t.Fatal("FF s-a-0 must be detected once good output becomes 1")
	}
	if ok, _ := s.Detects(Fault{f, logic.One}); ok {
		t.Fatal("FF s-a-1 must not be detected when good output is 1 or X")
	}
}

// TestDiffSimMatchesBruteForce is the simulator's core property: the
// event-driven difference propagation must agree with a full faulty-machine
// re-simulation for every fault, on random circuits and sequences.
func TestDiffSimMatchesBruteForce(t *testing.T) {
	for _, seed := range []uint64{2, 13, 77} {
		c := randTestCircuit(seed)
		s := NewSim(c)
		r := logic.NewRand64(seed ^ 0xabc)
		for trial := 0; trial < 5; trial++ {
			vectors := randVectors(r, len(c.PIs), 6)
			s.LoadSequence(vectors, nil)
			for _, f := range Universe(c) {
				got, _ := s.Detects(f)
				want := bruteForceDetects(c, f, vectors)
				if got != want {
					t.Fatalf("seed %d trial %d fault %s: diff-sim %v brute-force %v",
						seed, trial, Name(c, f), got, want)
				}
			}
		}
	}
}

// bruteForceDetects re-simulates the entire faulty machine with FuncSim.
func bruteForceDetects(c *netlist.Circuit, f Fault, vectors [][]logic.V) bool {
	good := sim.NewFuncSim(c)
	bad := sim.NewFuncSim(c)
	good.Reset(nil)
	bad.Reset(nil)
	bad.SetFault(f.Node, f.Stuck)
	for _, vec := range vectors {
		good.Step(vec)
		bad.Step(vec)
		for i := range c.POs {
			g, b := good.Output(i), bad.Output(i)
			if g.Known() && b.Known() && g != b {
				return true
			}
		}
	}
	return false
}

func randTestCircuit(seed uint64) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("fr%d", seed))
	var names []string
	for i := 0; i < 4; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < 5; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNand, logic.OpNor, logic.OpNot, logic.OpXor}
	for i := 0; i < 30; i++ {
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
	for i := 0; i < 5; i++ {
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(fmt.Sprintf("g%d", r.Intn(30))), netlist.Clock{})
	}
	b.PO("o1", netlist.P("g29"))
	b.PO("o2", netlist.P("g28"))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestRunAllAndName(t *testing.T) {
	c := circuits.Figure2()
	s := NewSim(c)
	r := logic.NewRand64(5)
	s.LoadSequence(randVectors(r, len(c.PIs), 6), nil)
	reps, _ := Collapse(c)
	var det []Fault
	for _, f := range reps {
		if ok, _ := s.Detects(f); ok {
			det = append(det, f)
		}
	}
	if len(det) == 0 {
		t.Fatal("random sequence detected nothing on Figure 2")
	}
	if Name(c, det[0]) == "" || det[0].String() == "" {
		t.Fatal("naming broken")
	}
	if s.Frames() != 6 {
		t.Fatalf("Frames = %d", s.Frames())
	}
}

// TestCollapseClassesDetectAlike is the collapse oracle on suite circuits:
// every member of a collapsed class must be detected exactly when, and at
// the same frame as, its representative, over seeded random sequences from
// the all-X state. A primary output with one gate fanout must stay out of
// that gate's class: the PO observes its driver directly, so on s1423 g413
// s-a-0 is detected while g432 s-a-1 (g432 = NAND(g13, g413) drives
// nothing) never is.
func TestCollapseClassesDetectAlike(t *testing.T) {
	for _, name := range []string{"s382", "s953", "s1423"} {
		c := gen.MustBuild(name)
		_, rep := Collapse(c)
		universe := Universe(c)
		reps := make([]Fault, len(universe))
		for i, f := range universe {
			reps[i] = rep[f]
		}
		r := logic.NewRand64(0xc011a)
		p := NewPackedSim(c)
		for seq := 0; seq < 8; seq++ {
			p.LoadSequence(randVectors(r, len(c.PIs), 32), nil)
			got, want := p.DetectAll(universe), p.DetectAll(reps)
			for i, f := range universe {
				if got[i] != want[i] {
					t.Fatalf("%s seq %d: %s detection %+v, its representative %s %+v",
						name, seq, Name(c, f), got[i], Name(c, reps[i]), want[i])
				}
			}
		}
	}
}
