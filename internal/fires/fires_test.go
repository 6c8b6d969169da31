package fires

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

func names(c *netlist.Circuit, fs []fault.Fault) map[string]bool {
	out := map[string]bool{}
	for _, f := range fs {
		out[fault.Name(c, f)] = true
	}
	return out
}

func TestTieUntestableFigure1(t *testing.T) {
	c := circuits.Figure1()
	lr := learn.Learn(c, learn.Options{})
	res := TieUntestable(c, lr)
	// The tied gates' stuck-at-tie-value faults must be covered (their
	// collapsed representatives may differ, e.g. G15 s-a-0 collapses onto
	// G14 s-a-1 through the NOR).
	_, rep := fault.Collapse(c)
	for _, want := range []string{"G3", "G12", "G15"} {
		f := fault.Fault{Node: c.MustLookup(want), Stuck: logic.Zero}
		if !slices.Contains(res.Untestable, rep[f]) {
			t.Errorf("missing %s s-a-0 (rep) in result", want)
		}
	}
	if len(res.Untestable) < 3 {
		t.Fatalf("too few tie-based untestables: %v", names(c, res.Untestable))
	}
	// Guard rail: nothing flagged may be detectable.
	if removed := Verify(c, res, 99, 40, 12); removed != 0 {
		t.Fatalf("%d flagged faults were detectable", removed)
	}
}

func TestFiresFindsStemConflictRedundancy(t *testing.T) {
	// Classic FIRE example: reconvergent stem makes g3 s-a-0 untestable.
	//   g1 = AND(s, a); g2 = AND(s̄, a); g3 = AND(g1, g2) ≡ 0.
	b := netlist.NewBuilder("fire")
	b.PI("s")
	b.PI("a")
	b.Gate("g1", logic.OpAnd, netlist.P("s"), netlist.P("a"))
	b.Gate("g2", logic.OpAnd, netlist.N("s"), netlist.P("a"))
	b.Gate("g3", logic.OpAnd, netlist.P("g1"), netlist.P("g2"))
	b.PO("o", netlist.P("g3"))
	c := b.MustBuild()
	res := Fires(c, nil, Options{})
	_, rep := fault.Collapse(c)
	if !slices.Contains(res.Untestable, rep[fault.Fault{Node: c.MustLookup("g3"), Stuck: logic.Zero}]) {
		t.Fatalf("FIRE missed g3 s-a-0: %v", names(c, res.Untestable))
	}
	if removed := Verify(c, res, 3, 60, 4); removed != 0 {
		t.Fatalf("%d flagged faults were detectable", removed)
	}
	// Exhaustive confirmation: no 2-frame binary sequence detects any
	// flagged fault (the circuit is combinational).
	s := fault.NewSim(c)
	for m := 0; m < 16; m++ {
		vec := [][]logic.V{{logic.FromBool(m&1 != 0), logic.FromBool(m&2 != 0)},
			{logic.FromBool(m&4 != 0), logic.FromBool(m&8 != 0)}}
		s.LoadSequence(vec, nil)
		for _, f := range res.Untestable {
			if ok, _ := s.Detects(f); ok {
				t.Fatalf("flagged fault %s detected exhaustively", fault.Name(c, f))
			}
		}
	}
}

func TestFiresOnFigure1(t *testing.T) {
	c := circuits.Figure1()
	lr := learn.Learn(c, learn.Options{})
	plain := Fires(c, lr, Options{})
	ext := Fires(c, lr, Options{UseRelations: true})
	if removed := Verify(c, plain, 5, 40, 12); removed != 0 {
		t.Fatalf("plain FIRES flagged %d detectable faults", removed)
	}
	if removed := Verify(c, ext, 7, 40, 12); removed != 0 {
		t.Fatalf("extended FIRES flagged %d detectable faults", removed)
	}
	if len(ext.Untestable) < len(plain.Untestable) {
		t.Fatalf("relations must not lose untestables: %d < %d",
			len(ext.Untestable), len(plain.Untestable))
	}
	if plain.Count() != len(plain.Untestable) {
		t.Fatal("Count broken")
	}
}

// TestSoundnessRandom: on random circuits, everything either analysis
// flags must survive heavy random simulation.
func TestSoundnessRandom(t *testing.T) {
	for _, seed := range []uint64{4, 19, 88} {
		c := randCircuit(seed, false)
		lr := learn.Learn(c, learn.Options{MaxFrames: 10})
		tieRes := TieUntestable(c, lr)
		if removed := Verify(c, tieRes, seed+1, 60, 14); removed != 0 {
			t.Fatalf("seed %d: tie analysis flagged %d detectable faults", seed, removed)
		}
		fRes := Fires(c, lr, Options{UseRelations: true})
		if removed := Verify(c, fRes, seed+2, 60, 14); removed != 0 {
			t.Fatalf("seed %d: FIRES flagged %d detectable faults", seed, removed)
		}
	}
}

// randCircuit builds a random 5-FF sequential circuit; xor adds XOR and
// XNOR gates to the gate mix.
func randCircuit(seed uint64, xor bool) *netlist.Circuit {
	r := logic.NewRand64(seed)
	b := netlist.NewBuilder(fmt.Sprintf("fs%d", seed))
	var names []string
	for i := 0; i < 5; i++ {
		n := fmt.Sprintf("i%d", i)
		b.PI(n)
		names = append(names, n)
	}
	for i := 0; i < 5; i++ {
		names = append(names, fmt.Sprintf("f%d", i))
	}
	ops := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpNand, logic.OpNor, logic.OpNot}
	if xor {
		ops = append(ops, logic.OpXor, logic.OpXnor)
	}
	for i := 0; i < 35; i++ {
		n := fmt.Sprintf("g%d", i)
		op := ops[r.Intn(len(ops))]
		arity := 2
		if op == logic.OpNot {
			arity = 1
		}
		refs := make([]netlist.Ref, 0, arity)
		for k := 0; k < arity; k++ {
			name := names[r.Intn(len(names))]
			if r.Intn(3) == 0 {
				refs = append(refs, netlist.N(name))
			} else {
				refs = append(refs, netlist.P(name))
			}
		}
		b.Gate(n, op, refs...)
		names = append(names, n)
	}
	for i := 0; i < 5; i++ {
		b.DFF(fmt.Sprintf("f%d", i), netlist.P(fmt.Sprintf("g%d", r.Intn(35))), netlist.Clock{})
	}
	b.PO("o", netlist.P("g34"))
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

func TestObservabilityBlocking(t *testing.T) {
	// With a tie forcing one AND input to 0, the other input becomes
	// unobservable: both its faults are untestable.
	b := netlist.NewBuilder("blk")
	b.PI("a")
	b.PI("x")
	b.Gate("t0", logic.OpAnd, netlist.P("x"), netlist.N("x")) // tied 0
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("t0"))
	b.PO("o", netlist.P("g"))
	c := b.MustBuild()
	lr := learn.Learn(c, learn.Options{})
	res := TieUntestable(c, lr)
	got := names(c, res.Untestable)
	if !got["a s-a-0"] || !got["a s-a-1"] {
		t.Fatalf("blocked PI faults not flagged: %v", got)
	}
	if removed := Verify(c, res, 1, 40, 4); removed != 0 {
		t.Fatal("unsound flagging")
	}
}

// blockingCircuit is shared with the debug harness.
func blockingCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("blk")
	b.PI("a")
	b.PI("x")
	b.Gate("t0", logic.OpAnd, netlist.P("x"), netlist.N("x"))
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("t0"))
	b.PO("o", netlist.P("g"))
	return b.MustBuild()
}

// TestFiresXorCompletion: z = AND(y, ¬s) with y = AND(b, c) and
// s = OR(XOR(a, b), a) = a ∨ b is constant 0, so z s-a-0 is untestable.
// Under s=1 the inverted pin forces z=0 forward; under s=0 unique
// justification sets a=0 and XOR(a, b)=0, and only XOR parity completion
// then yields b=0, hence y=0 and z=0. Without it no stem conflict on s
// (or on a or b) flags the fault.
func TestFiresXorCompletion(t *testing.T) {
	b := netlist.NewBuilder("xorfire")
	b.PI("a")
	b.PI("b")
	b.PI("c")
	b.Gate("p", logic.OpXor, netlist.P("a"), netlist.P("b"))
	b.Gate("s", logic.OpOr, netlist.P("p"), netlist.P("a"))
	b.Gate("y", logic.OpAnd, netlist.P("b"), netlist.P("c"))
	b.Gate("z", logic.OpAnd, netlist.P("y"), netlist.N("s"))
	b.Gate("w", logic.OpNot, netlist.P("s")) // makes s a fanout stem
	b.PO("o1", netlist.P("z"))
	b.PO("o2", netlist.P("w"))
	c := b.MustBuild()
	_, rep := fault.Collapse(c)
	f := rep[fault.Fault{Node: c.MustLookup("z"), Stuck: logic.Zero}]
	if slices.Contains(refFires(c, nil, Options{}).Untestable, f) {
		t.Fatal("the legacy analyzer flags z s-a-0: the circuit does not isolate parity completion")
	}
	res := Fires(c, nil, Options{})
	if !slices.Contains(res.Untestable, f) {
		t.Fatalf("FIRES missed z s-a-0: %v", names(c, res.Untestable))
	}
	// Exhaustive confirmation: no 2-frame binary sequence detects any
	// flagged fault (the circuit is combinational).
	s := fault.NewSim(c)
	for m := 0; m < 64; m++ {
		vec := make([][]logic.V, 2)
		for k := range vec {
			vec[k] = []logic.V{logic.FromBool(m>>(3*k)&1 != 0),
				logic.FromBool(m>>(3*k+1)&1 != 0), logic.FromBool(m>>(3*k+2)&1 != 0)}
		}
		s.LoadSequence(vec, nil)
		for _, g := range res.Untestable {
			if ok, _ := s.Detects(g); ok {
				t.Fatalf("flagged fault %s detected exhaustively", fault.Name(c, g))
			}
		}
	}
}

// TestFiresConcurrent: analyses of different circuits share no state, so
// concurrent calls return exactly the serial results (and run clean under
// -race).
func TestFiresConcurrent(t *testing.T) {
	var cs []*netlist.Circuit
	var lrs []*learn.Result
	var want []string
	for _, name := range []string{"s382", "s953"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{})
		cs, lrs = append(cs, c), append(lrs, lr)
		want = append(want, fmt.Sprint(Fires(c, lr, Options{UseRelations: true}).Untestable))
	}
	got := make([]string, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = fmt.Sprint(Fires(cs[i], lrs[i], Options{UseRelations: true}).Untestable)
		}()
	}
	wg.Wait()
	for i := range cs {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent Fires differs from the serial run", cs[i].Name)
		}
	}
}
