package learn

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// validityViolations is the no-warm-up validity-frame oracle. It replays
// random binary runs from random power-up states — no frame is discarded —
// and checks every learned fact exactly where ATPG trusts it: a tie from
// its Frame on, a same-frame relation from its DepthOf on, and a
// cross-frame relation A@t-Dt ⟹ B@t whenever frame t-Dt exists and
// t ≥ DepthOf. Unlike checkSoundness, which skips warm-up frames and so
// never tests a label, a fact that is true but labelled too early fails
// here. It returns each violated fact once, formatted, sorted.
func validityViolations(c *netlist.Circuit, res *Result, seed uint64, runs, frames int) []string {
	type rel struct {
		imply.Relation
		depth int
	}
	var rels []rel
	for _, r := range res.DB.Relations() {
		rels = append(rels, rel{r, res.DB.DepthOf(r.A, r.B, int(r.Dt))})
	}
	ties := append(append([]Tie{}, res.CombTies...), res.SeqTies...)

	bad := map[string]bool{}
	r := logic.NewRand64(seed)
	f := sim.NewFuncSim(c)
	history := make([][]logic.V, frames)
	for run := 0; run < runs; run++ {
		init := make([]logic.V, len(c.Seqs))
		for i := range init {
			init[i] = logic.FromBool(r.Bool())
		}
		f.Reset(init)
		pis := make([]logic.V, len(c.PIs))
		for t := 0; t < frames; t++ {
			for i := range pis {
				pis[i] = logic.FromBool(r.Bool())
			}
			f.Step(pis)
			cur := history[t][:0]
			for id := 0; id < c.NumNodes(); id++ {
				cur = append(cur, f.Value(netlist.NodeID(id)))
			}
			history[t] = cur
			for _, tie := range ties {
				if t >= tie.Frame && cur[tie.Node] != tie.Val {
					bad[fmt.Sprintf("tie %s=%s frame %d", c.NameOf(tie.Node), tie.Val, tie.Frame)] = true
				}
			}
			for _, rl := range rels {
				at := t - int(rl.Dt)
				if t < rl.depth || at < 0 {
					continue
				}
				if history[at][rl.A.Node] == rl.A.Val && cur[rl.B.Node] != rl.B.Val {
					bad[fmt.Sprintf("relation %s depth %d", res.DB.FormatRelation(rl.Relation), rl.depth)] = true
				}
			}
		}
	}
	out := make([]string, 0, len(bad))
	for k := range bad {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestValidityFramesSingleNode: every fact single-node learning emits
// holds at every frame from its label on, from any binary power-up state,
// on random circuits, suite circuits and a retimed (non-resettable) one.
// Full learning does not pass this oracle yet: multiple-node results are
// labelled too early (ROADMAP item 1).
func TestValidityFramesSingleNode(t *testing.T) {
	type tc struct {
		name string
		c    *netlist.Circuit
	}
	var cases []tc
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		c := randCircuit(seed, 5, 50, 8)
		cases = append(cases, tc{c.Name, c})
	}
	for _, name := range []string{"s382", "s953", "s510jcsrre"} {
		cases = append(cases, tc{name, gen.MustBuild(name)})
	}
	for i, k := range cases {
		res := Learn(k.c, Options{SingleNodeOnly: true})
		if res.DB.Len() == 0 {
			t.Fatalf("%s: nothing learned, the oracle checks nothing", k.name)
		}
		if bad := validityViolations(k.c, res, uint64(i)*7919+1, 300, 30); len(bad) > 0 {
			t.Errorf("%s: %d facts false at their labelled frame, e.g. %v",
				k.name, len(bad), bad[:min(len(bad), 5)])
		}
	}
}

// TestValidityOracleCatchesMislabels tests the oracle itself: a tie with
// its value flipped and a relation with its consequent flipped are false
// wherever their antecedent is reached, so both must be reported.
func TestValidityOracleCatchesMislabels(t *testing.T) {
	c := gen.MustBuild("s382")
	res := Learn(c, Options{SingleNodeOnly: true})
	if len(res.SeqTies) == 0 {
		t.Fatal("s382 learned no sequential tie to corrupt")
	}
	tie := res.SeqTies[0]
	var r imply.Relation
	for _, r = range res.DB.Relations() {
		if r.Dt == 0 && c.IsSeq(r.A.Node) {
			break
		}
	}
	db := imply.NewDB(c)
	db.Add(r.A, r.B.Not(), 0, false, res.DB.DepthOf(r.A, r.B, 0))
	bad := &Result{DB: db.Freeze(), SeqTies: []Tie{{Node: tie.Node, Val: tie.Val.Not(), Frame: tie.Frame}}}
	if got := validityViolations(c, bad, 1, 300, 30); len(got) != 2 {
		t.Fatalf("oracle reported %v, want the flipped tie and the flipped relation", got)
	}
}
