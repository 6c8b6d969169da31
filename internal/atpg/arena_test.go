package atpg

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// arenaConfig is one option set the arena tests run a circuit under.
type arenaConfig struct {
	name string
	opt  Options
}

// arenaConfigs covers the three learning-use modes, each with the learned
// ties and a random fill so emitted tests are fully specified. A last configuration adds arbitrary, mostly
// inconsistent ties: sound learned data never conflicts in the middle of
// implication, so only made-up facts drive the searches that end with a
// half-drained worklist for rollback to clear.
func arenaConfigs(c *netlist.Circuit, lr *learn.Result) []arenaConfig {
	ties := append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...)
	base := Options{BacktrackLimit: 30, DB: lr.DB, Ties: ties, FillSeed: 0x7e57}
	var cfgs []arenaConfig
	for _, mode := range []Mode{ModeNoLearning, ModeForbidden, ModeKnown} {
		opt := base
		opt.Mode = mode
		cfgs = append(cfgs, arenaConfig{mode.String(), opt})
	}

	bogus := base
	bogus.Mode = ModeForbidden
	bogus.Ties = slices.Clone(ties)
	r := logic.NewRand64(uint64(c.NumNodes()))
	for k := 0; k < 8; k++ {
		bogus.Ties = append(bogus.Ties, learn.Tie{
			Node:  netlist.NodeID(r.Intn(c.NumNodes())),
			Val:   logic.FromBool(r.Bool()),
			Frame: r.Intn(2),
		})
	}
	return append(cfgs, arenaConfig{"forbidden+bogus-ties", bogus})
}

// checkIdle asserts the arena is back in its idle state: all-X values, no
// forbidden marks, no queued or derived flags, and an empty trail,
// worklist and decision stack.
func checkIdle(t *testing.T, a *arena) {
	t.Helper()
	e := a.e
	for i, c := range e.cells {
		if c != 0 {
			t.Fatalf("frame %d node %s left dirty: value %v forb %d flags %02b",
				i/e.n, e.c.NameOf(netlist.NodeID(i%e.n)), c.val(), c.forb(), c>>5)
		}
	}
	if len(e.trail) != 0 || len(e.queue) != 0 || len(a.stack) != 0 || len(e.dfront) != 0 || e.conflict {
		t.Fatalf("arena left busy: trail %d queue %d stack %d dfront %d conflict %v",
			len(e.trail), len(e.queue), len(a.stack), len(e.dfront), e.conflict)
	}
}

// checkForbidden asserts the cell invariants the implication fast paths
// rely on: no cell holds a good value one of its forbidden bits rules out,
// and every derived cell (one push skips) re-evaluates to the value it
// holds. Every cell write is trailed, so checking the trailed cells covers
// the whole model.
func checkForbidden(t *testing.T, e *expanded) {
	t.Helper()
	for _, te := range e.trail {
		at := e.fnodeOf(te)
		c := e.cellAt(at)
		v, forb := c.val(), c.forb()
		if g := v.Good(); (g == logic.Zero && forb&1 != 0) || (g == logic.One && forb&2 != 0) {
			t.Fatalf("frame %d node %s holds %v but is forbidden %02b",
				at.t, e.c.NameOf(at.n), v, forb)
		}
		if c&cellDerived != 0 {
			if got := e.evalCell(at); got != v {
				t.Fatalf("frame %d node %s is derived with %v but evaluates to %v",
					at.t, e.c.NameOf(at.n), v, got)
			}
		}
	}
}

// TestArenaReuseMatchesFreshGenerate is the oracle for arena reuse: every
// collapsed fault searched through one long-lived arena, in list order and
// in reverse, must give exactly the Result a fresh Generate gives, and must
// leave the arena idle; after every settle its cells must respect their
// forbidden marks. A state leak from one fault into the next shows up
// as a differing outcome, window, backtrack count or test.
func TestArenaReuseMatchesFreshGenerate(t *testing.T) {
	circuits := []*netlist.Circuit{gen.MustBuild("s382"), randCircuit(17)}
	for _, c := range circuits {
		lr := learn.Learn(c, learn.Options{MaxFrames: 10})
		faults, _ := fault.Collapse(c)
		for _, cfg := range arenaConfigs(c, lr) {
			t.Run(fmt.Sprintf("%s/%s", c.Name, cfg.name), func(t *testing.T) {
				opt := cfg.opt
				opt.prepare(c)
				fresh := make([]Result, len(faults))
				for i, f := range faults {
					fresh[i] = Generate(c, f, cfg.opt)
				}
				order := make([]int, len(faults))
				for i := range order {
					order[i] = i
				}
				reverse := slices.Clone(order)
				slices.Reverse(reverse)
				a := newArena(c, &opt)
				a.e.settleHook = func(e *expanded) { checkForbidden(t, e) }
				for _, pass := range [][]int{order, reverse} {
					for _, i := range pass {
						got := a.generate(faults[i], &opt)
						if !reflect.DeepEqual(got, fresh[i]) {
							t.Fatalf("fault %s: arena %+v, fresh %+v", faults[i], got, fresh[i])
						}
						checkIdle(t, a)
					}
				}
			})
		}
	}
}

// wideCircuit is a small sequential circuit of 12-input AND, NOR and XOR
// gates, some pins inverted: wider than any fixed-size evaluation buffer.
func wideCircuit() *netlist.Circuit {
	b := netlist.NewBuilder("wide12")
	var ins []netlist.Ref
	for i := range 10 {
		name := fmt.Sprintf("i%d", i)
		b.PI(name)
		if i%3 == 0 {
			ins = append(ins, netlist.N(name))
		} else {
			ins = append(ins, netlist.P(name))
		}
	}
	ins = append(ins, netlist.P("q1"), netlist.N("q2"))
	b.Gate("a", logic.OpAnd, ins...)
	b.Gate("n", logic.OpNor, ins...)
	b.Gate("x", logic.OpXor, ins...)
	b.DFF("q1", netlist.P("x"), netlist.Clock{})
	b.DFF("q2", netlist.N("a"), netlist.Clock{})
	b.PO("oa", netlist.P("a"))
	b.PO("on", netlist.P("n"))
	b.PO("ox", netlist.P("x"))
	return b.MustBuild()
}

// checkSteadyAllocs searches f again through a warmed arena: it must
// allocate nothing unless the search emits a test, and then only the test
// itself (the frame slice plus one PI vector per frame).
func checkSteadyAllocs(t *testing.T, a *arena, f fault.Fault, opt *Options) {
	t.Helper()
	var res Result
	allocs := testing.AllocsPerRun(3, func() { res = a.generate(f, opt) })
	want := 0.0
	if res.Outcome == Detected {
		want = float64(1 + res.Window)
	}
	if allocs != want {
		t.Errorf("%v fault %s (window %d): %.1f allocs per search, want %.0f",
			res.Outcome, f, res.Window, allocs, want)
	}
}

// TestArenaSteadyStateAllocs: once an arena has searched a fault, searching
// it again allocates nothing unless the search emits a test — on s953 and
// on a circuit of wide gates alike.
func TestArenaSteadyStateAllocs(t *testing.T) {
	t.Run("s953", func(t *testing.T) {
		c := gen.MustBuild("s953")
		lr := learn.Learn(c, learn.Options{})
		faults, _ := fault.Collapse(c)
		opt := arenaConfigs(c, lr)[1].opt // forbidden mode: relations and forbidden marks
		opt.prepare(c)
		a := newArena(c, &opt)

		// A fixed sample with a few faults of every outcome.
		const perOutcome = 4
		picked := map[Outcome][]fault.Fault{}
		full := 0
		for _, f := range faults {
			out := a.generate(f, &opt).Outcome
			if len(picked[out]) < perOutcome {
				picked[out] = append(picked[out], f)
				if len(picked[out]) == perOutcome {
					if full++; full == 3 {
						break
					}
				}
			}
		}
		for _, out := range []Outcome{Detected, Untestable, Aborted} {
			if len(picked[out]) == 0 {
				t.Fatalf("setup: no %v fault in s953's collapsed list", out)
			}
			for _, f := range picked[out] {
				checkSteadyAllocs(t, a, f, &opt)
			}
		}
	})
	t.Run("wide12", func(t *testing.T) {
		c := wideCircuit()
		lr := learn.Learn(c, learn.Options{})
		faults, _ := fault.Collapse(c)
		for _, cfg := range arenaConfigs(c, lr) {
			opt := cfg.opt
			opt.prepare(c)
			a := newArena(c, &opt)
			for _, f := range faults {
				a.generate(f, &opt)
				checkSteadyAllocs(t, a, f, &opt)
			}
		}
	})
}

// TestForbiddenMarkOnKnownConsequent pins why forbidden mode skips a
// consequent only when its mark is already set, not when its value is
// already known: on a node asserted by a tie, the mark a relation adds still
// propagates into the node's X fanins. Here g = AND(a, b) is tied to 1 and
// x=1 implies g=1; firing the relation forbids 0 on g and so on a and b.
func TestForbiddenMarkOnKnownConsequent(t *testing.T) {
	b := netlist.NewBuilder("tiedand")
	for _, pi := range []string{"a", "b", "x"} {
		b.PI(pi)
	}
	b.Gate("g", logic.OpAnd, netlist.P("a"), netlist.P("b"))
	b.Gate("o", logic.OpOr, netlist.P("g"), netlist.P("x"))
	b.PO("o", netlist.P("o"))
	c := b.MustBuild()
	g, x := c.MustLookup("g"), c.MustLookup("x")

	db := imply.NewDB(c)
	db.Add(imply.Lit{Node: x, Val: logic.One}, imply.Lit{Node: g, Val: logic.One}, 0, false, 0)
	opt := Options{Mode: ModeForbidden, DB: db.Freeze(), Ties: []learn.Tie{{Node: g, Val: logic.One}}}
	opt.prepare(c)
	e := newArena(c, &opt).e
	e.setFault(fault.Fault{Node: c.MustLookup("o"), Stuck: logic.Zero}, &opt)
	e.w = 1
	if !e.init() || e.cellAt(fnode{0, g}).val() != logic.One5 {
		t.Fatalf("setup: tie not asserted, g = %v", e.cellAt(fnode{0, g}).val())
	}
	if !e.assignPI(fnode{0, x}, logic.One) {
		t.Fatal("x=1 conflicted")
	}
	if e.cellAt(fnode{0, g}).forb() != 1 {
		t.Errorf("g forbidden bits %02b, want 01 (must not be 0)", e.cellAt(fnode{0, g}).forb())
	}
	for _, in := range []string{"a", "b"} {
		if n := c.MustLookup(in); e.cellAt(fnode{0, n}).forb() != 1 {
			t.Errorf("fanin %s forbidden bits %02b, want 01 (must not be 0)", in, e.cellAt(fnode{0, n}).forb())
		}
	}
}
