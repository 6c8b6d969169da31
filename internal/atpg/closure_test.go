package atpg

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
)

// TestInitSnapshotMatchesInit is the oracle for tie-closure snapshots: for
// every collapsed fault and window, every restored closure must leave the
// state init leaves in a model without a cache: equal cells (value,
// forbidden bits, flags), the same trail entries as a set, and an empty
// D-frontier. Suite circuits run in the three learning-use modes, random
// ones in every arena configuration (bogus ties make closures conflict).
// Init computes the closure whenever it does not restore, the same code
// the cacheless model runs, so only restores are compared. The cases a
// restore must refuse — a tie asserted on the fault node, a fault site
// forced to a good value other than its stuck value, a conflicting closure
// — must each occur while a snapshot for the key is held.
func TestInitSnapshotMatchesInit(t *testing.T) {
	circuits := []*netlist.Circuit{gen.MustBuild("s382"), gen.MustBuild("s953"), gen.MustBuild("s1423"), gen.MustBuild("s510jcsrre")}
	for seed := uint64(1); seed <= 10; seed++ {
		circuits = append(circuits, randCircuit(seed))
	}
	var restored, tieOnFault, siteForced, conflicting int
	for k, c := range circuits {
		lr := learn.Learn(c, learn.Options{MaxFrames: 10})
		faults, _ := fault.Collapse(c)
		cfgs := arenaConfigs(c, lr)
		if k < 4 {
			cfgs = cfgs[:3]
		}
		for _, cfg := range cfgs {
			opt := cfg.opt
			opt.prepare(c)
			cached, fresh := newArena(c, &opt).e, newArena(c, &opt).e
			fresh.closures = nil
			marks := make([]uint8, len(fresh.cells))
			for _, f := range faults {
				cached.setFault(f, &opt)
				fresh.setFault(f, &opt)
				for _, w := range opt.Windows {
					cached.w, fresh.w = w, w
					s, _ := cached.closures.lookup(w)
					held := s != nil
					before := cached.stats.restored
					ok := cached.init()
					if cached.stats.restored == before {
						if held {
							tieOnFault += btoi(cached.faultTie < w)
							siteForced += btoi(ok && cached.faultTie >= w && siteForcedOff(cached))
							conflicting += btoi(!ok)
						}
						cached.rollback(0)
						continue
					}
					restored++
					where := func() string { return c.Name + "/" + cfg.name + " " + f.String() }
					if !ok || !fresh.init() {
						t.Fatalf("%s w=%d: restored %v, init without cache conflicts", where(), w, ok)
					}
					if i := firstCellDiff(cached.cells, fresh.cells); i >= 0 {
						t.Fatalf("%s w=%d: frame %d node %s restored cell %08b, without cache %08b",
							where(), w, i/c.NumNodes(), c.NameOf(netlist.NodeID(i%c.NumNodes())),
							cached.cells[i], fresh.cells[i])
					}
					if !sameEntries(cached.trail, fresh.trail, marks) {
						t.Fatalf("%s w=%d: restored trail entries differ from init's", where(), w)
					}
					if len(cached.dfront) != 0 || len(fresh.dfront) != 0 {
						t.Fatalf("%s w=%d: D-frontier %v restored, %v without cache",
							where(), w, cached.dfront, fresh.dfront)
					}
					cached.rollback(0)
					fresh.rollback(0)
				}
			}
		}
	}
	t.Logf("restored %d; with a snapshot held: tie on the fault node %d, fault site forced %d, conflict %d",
		restored, tieOnFault, siteForced, conflicting)
	if restored == 0 || tieOnFault == 0 || siteForced == 0 || conflicting == 0 {
		t.Fatal("a case the restore must handle was never reached")
	}
}

// siteForcedOff reports whether some fault-site cell holds a known good
// value other than the stuck value.
func siteForcedOff(e *expanded) bool {
	for tf := 0; tf < e.w; tf++ {
		if g := e.cellAt(fnode{tf, e.f.Node}).val().Good(); g.Known() && g != e.f.Stuck {
			return true
		}
	}
	return false
}

func firstCellDiff(a, b []cell) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// sameEntries reports whether two trails hold the same entries, in any
// order. A trail never repeats an entry (a cell's value and each of its
// forbidden bits are written once), so marking one trail's entries per
// cell and clearing them with the other's decides it; marks is left zero.
func sameEntries(a, b []uint32, marks []uint8) bool {
	if len(a) != len(b) {
		return false
	}
	for _, te := range a {
		marks[te>>2] |= 1 << (te & 3)
	}
	same := true
	for _, te := range b {
		bit := uint8(1) << (te & 3)
		same = same && marks[te>>2]&bit != 0
		marks[te>>2] &^= bit
	}
	for _, te := range a {
		marks[te>>2] = 0
	}
	return same
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
