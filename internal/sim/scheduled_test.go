package sim

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// frameEq compares a packed-extracted frame against a scalar one, treating
// nil and empty as equal (the scalar engine records empty frames non-nil).
func frameEq(a, b Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLane compares one extracted lane against the scalar engine's result
// for the same run, field by field (ConflictNode is event-order dependent
// and deliberately not reproduced by the packed runner).
func checkLane(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.Conflict != want.Conflict {
		t.Fatalf("%s: Conflict packed %v, scalar %v", tag, got.Conflict, want.Conflict)
	}
	if got.Conflict && got.ConflictFrame != want.ConflictFrame {
		t.Fatalf("%s: ConflictFrame packed %d, scalar %d", tag, got.ConflictFrame, want.ConflictFrame)
	}
	if got.StoppedEarly != want.StoppedEarly {
		t.Fatalf("%s: StoppedEarly packed %v, scalar %v", tag, got.StoppedEarly, want.StoppedEarly)
	}
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("%s: %d frames packed, %d scalar", tag, len(got.Frames), len(want.Frames))
	}
	for f := range got.Frames {
		if !frameEq(got.Frames[f], want.Frames[f]) {
			t.Fatalf("%s frame %d: packed %v, scalar %v", tag, f, got.Frames[f], want.Frames[f])
		}
	}
}

// checkCaptured compares the CaptureLast groups of a run with the scalar
// engine's results: a capturing lane sits in exactly one group when its
// scalar run recorded the final frame (index cap-1) and reads that frame
// from it; every other lane sits in none.
func checkCaptured(t *testing.T, tag string, res *ScheduledResult, lanes []LaneRun, want []Result) {
	t.Helper()
	groups := res.CapturedGroups()
	for l, lr := range lanes {
		bit := uint64(1) << uint(l)
		var frame Frame
		hits := 0
		for _, g := range groups {
			if g.Mask&bit == 0 {
				continue
			}
			hits++
			for i, n := range g.Nodes {
				if v := g.Vals[i].Get(l); v != logic.X {
					frame = append(frame, Assign{Node: n, Val: v})
				}
			}
		}
		reached := lr.CaptureLast && len(want[l].Frames) == lr.MaxFrames
		if reached != (hits == 1) || hits > 1 {
			t.Fatalf("%s lane %d: in %d captured groups; capture requested %v, scalar frames %d of cap %d",
				tag, l, hits, lr.CaptureLast, len(want[l].Frames), lr.MaxFrames)
		}
		if reached && !frameEq(frame, want[l].Frames[lr.MaxFrames-1]) {
			t.Fatalf("%s lane %d: captured %v, scalar final frame %v", tag, l, frame, want[l].Frames[lr.MaxFrames-1])
		}
	}
}

// TestRunScheduledMatchesEngine is the scheduled runner's core contract:
// each lane of a 64-lane batch — its own injection schedule, its own frame
// cap — must reproduce Engine.Run bit for bit, across random propagation
// gating, equivalence partner maps, tie constants and the early-stop
// ablation. Lanes may capture their final frame (CaptureLast), and some
// rounds skip the frame records as the multiple-node sweep does
// (NoFrameRecords): the captured groups must still match. This is the
// property the packed learner's correctness reduces to.
func TestRunScheduledMatchesEngine(t *testing.T) {
	for _, seed := range []uint64{5, 17, 23, 61, 97, 131} {
		c := randSeqCircuit(seed)
		pe := NewPackedEngine(c)
		se := NewEngine(c)
		r := logic.NewRand64(seed * 0x5bd1)

		// Several rounds per circuit reusing both engines, so stale-scratch
		// bugs between batches surface too.
		for round := 0; round < 6; round++ {
			var opt Options
			if r.Bool() {
				opt.NoEarlyStop = true
			}
			opt.NoFrameRecords = r.Intn(3) == 0
			if r.Intn(3) == 0 {
				modes := make([]PropMode, len(c.Seqs))
				for i := range modes {
					modes[i] = PropMode(r.Intn(4))
				}
				opt.PropModes = modes
			}
			if r.Intn(3) == 0 {
				// A few random partner assertions; both engines must treat
				// them identically, consistent or not.
				opt.Equiv = map[netlist.NodeID][]netlist.NodeID{}
				for k := 0; k < 1+r.Intn(3); k++ {
					src := netlist.NodeID(r.Intn(c.NumNodes()))
					opt.Equiv[src] = append(opt.Equiv[src], netlist.NodeID(r.Intn(c.NumNodes())))
				}
			}
			ties := map[netlist.NodeID]logic.V{}
			if r.Intn(2) == 0 {
				// At most one explicit tie keeps the map trivially
				// consistent with its own closure (the SetTies contract).
				ties[netlist.NodeID(r.Intn(c.NumNodes()))] = logic.FromBool(r.Bool())
			}
			pe.SetTies(ties)
			se.SetTies(ties)

			lanes := make([]LaneRun, 1+r.Intn(logic.W))
			for l := range lanes {
				lanes[l].MaxFrames = 1 + r.Intn(12)
				lanes[l].CaptureLast = r.Bool()
				for k := r.Intn(6); k > 0; k-- {
					frame := r.Intn(7)
					if r.Intn(16) == 0 {
						frame = -1 // dropped by both engines
					}
					lanes[l].Inj = append(lanes[l].Inj, Injection{
						Frame: frame,
						Node:  netlist.NodeID(r.Intn(c.NumNodes())),
						Val:   logic.FromBool(r.Bool()),
					})
				}
			}

			res := pe.RunScheduled(lanes, opt)
			tag := string(rune('A'+round)) + "/" + c.Name
			want := make([]Result, len(lanes))
			for l := range lanes {
				lopt := opt
				lopt.MaxFrames = lanes[l].MaxFrames
				want[l] = se.Run(lanes[l].Inj, lopt)
				if res.NumFrames(l) != len(want[l].Frames) || (res.ConflictMask>>uint(l)&1 == 1) != want[l].Conflict {
					t.Fatalf("%s lane %d: %d frames (conflict mask %x), scalar %d frames (conflict %v)",
						tag, l, res.NumFrames(l), res.ConflictMask, len(want[l].Frames), want[l].Conflict)
				}
			}
			checkCaptured(t, tag, res, lanes, want)
			if opt.NoFrameRecords {
				continue
			}
			got := res.Results()
			for l := range lanes {
				checkLane(t, tag, got[l], want[l])
			}
		}
	}
}

// TestRunScheduledLearnedTies replays the scheduled runner against the
// scalar engine under a multi-node tie map closed over several nodes — the
// configuration the learner installs for its multiple-node pass.
func TestRunScheduledLearnedTies(t *testing.T) {
	c := randSeqCircuit(41)
	pe := NewPackedEngine(c)
	se := NewEngine(c)
	r := logic.NewRand64(0xfeed)

	// Tie three distinct gates; distinct explicit ties cannot contradict
	// each other, and the closure is computed identically by both engines.
	ties := map[netlist.NodeID]logic.V{}
	for len(ties) < 3 {
		ties[c.MustLookup("g"+string(rune('0'+r.Intn(10))))] = logic.FromBool(r.Bool())
	}
	pe.SetTies(ties)
	se.SetTies(ties)

	for round := 0; round < 4; round++ {
		lanes := make([]LaneRun, logic.W)
		for l := range lanes {
			lanes[l].MaxFrames = 8
			lanes[l].Inj = []Injection{{
				Frame: 0,
				Node:  netlist.NodeID(r.Intn(c.NumNodes())),
				Val:   logic.FromBool(r.Bool()),
			}}
		}
		got := pe.RunScheduled(lanes, Options{MaxFrames: 8}).Results()
		for l := range lanes {
			want := se.Run(lanes[l].Inj, Options{MaxFrames: 8})
			checkLane(t, "ties", got[l], want)
		}
	}

	// CopyTies onto a clone must reproduce the same results; clearing them
	// must match a tie-free scalar engine.
	clone := pe.Clone()
	clone.CopyTies(pe)
	lanes := []LaneRun{{Inj: []Injection{{Frame: 0, Node: c.MustLookup("g5"), Val: logic.One}}, MaxFrames: 6}}
	checkLane(t, "copyties", clone.RunScheduled(lanes, Options{}).Results()[0],
		se.Run(lanes[0].Inj, Options{MaxFrames: 6}))
	pe.SetTies(nil)
	se.SetTies(nil)
	checkLane(t, "clearties", pe.RunScheduled(lanes, Options{}).Results()[0],
		se.Run(lanes[0].Inj, Options{MaxFrames: 6}))
}

// TestRunScheduledAfterStep interleaves functional Step frames (which
// overwrite every node word) with scheduled runs on the same engine: the
// scheduled results must be unaffected by the functional state.
func TestRunScheduledAfterStep(t *testing.T) {
	c := randSeqCircuit(13)
	pe := NewPackedEngine(c)
	se := NewEngine(c)
	r := logic.NewRand64(0xabcd)

	pis := make([]logic.V, len(c.PIs))
	for i := range pis {
		pis[i] = logic.FromBool(r.Bool())
	}
	for round := 0; round < 3; round++ {
		pe.Reset(nil)
		pe.StepBroadcast(pis)

		lanes := make([]LaneRun, 17)
		for l := range lanes {
			lanes[l].MaxFrames = 10
			lanes[l].Inj = []Injection{
				{Frame: 0, Node: netlist.NodeID(r.Intn(c.NumNodes())), Val: logic.FromBool(r.Bool())},
				{Frame: 2, Node: netlist.NodeID(r.Intn(c.NumNodes())), Val: logic.FromBool(r.Bool())},
			}
		}
		got := pe.RunScheduled(lanes, Options{MaxFrames: 10}).Results()
		for l := range lanes {
			want := se.Run(lanes[l].Inj, Options{MaxFrames: 10})
			checkLane(t, "afterstep", got[l], want)
		}
	}
}
