package atpg

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// arenaConfig is one option set the arena tests run a circuit under.
type arenaConfig struct {
	name string
	opt  Options
}

// arenaConfigs covers the three learning-use modes plus the cross-frame
// extension, each with the learned ties and a random fill so emitted tests
// are fully specified. A last configuration adds arbitrary, mostly
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
	cross := base
	cross.Mode = ModeKnown
	cross.UseCrossFrame = true
	cfgs = append(cfgs, arenaConfig{"known+cross", cross})

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
// forbidden marks, no queued flags, and an empty trail, worklist and
// decision stack.
func checkIdle(t *testing.T, a *arena) {
	t.Helper()
	e := a.e
	for tf := range e.values {
		for n := range e.values[tf] {
			if e.values[tf][n] != logic.X5 || e.forb[tf][n] != 0 || e.queued[tf][n] {
				t.Fatalf("frame %d node %s left dirty: value %v forb %d queued %v",
					tf, e.c.NameOf(netlist.NodeID(n)), e.values[tf][n], e.forb[tf][n], e.queued[tf][n])
			}
		}
	}
	if len(e.trail) != 0 || len(e.queue) != 0 || len(a.stack) != 0 || e.dCount != 0 || e.conflict {
		t.Fatalf("arena left busy: trail %d queue %d stack %d dCount %d conflict %v",
			len(e.trail), len(e.queue), len(a.stack), e.dCount, e.conflict)
	}
}

// TestArenaReuseMatchesFreshGenerate is the oracle for arena reuse: every
// collapsed fault searched through one long-lived arena, in list order and
// in reverse, must give exactly the Result a fresh Generate gives, and must
// leave the arena idle. A state leak from one fault into the next shows up
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

// TestArenaSteadyStateAllocs: once an arena has searched a fault, searching
// it again allocates nothing unless the search emits a test — and then only
// the test itself (the frame slice plus one PI vector per frame).
func TestArenaSteadyStateAllocs(t *testing.T) {
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
			var res Result
			allocs := testing.AllocsPerRun(3, func() { res = a.generate(f, &opt) })
			want := 0.0
			if res.Outcome == Detected {
				want = float64(1 + res.Window)
			}
			if allocs != want {
				t.Errorf("%v fault %s (window %d): %.1f allocs per search, want %.0f",
					res.Outcome, f, res.Window, allocs, want)
			}
		}
	}
}
