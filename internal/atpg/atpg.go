// Package atpg implements a sequential test pattern generator: a 5-valued
// PODEM search over a time-frame-expanded circuit model with unknown (X)
// initial state, backtrack limits, and three ways of using learned
// implication data (paper Section 4):
//
//   - ModeNoLearning: only combinationally derivable relations are used —
//     the paper's baseline ("all the ATPG experiments performed make use of
//     combinational learning").
//   - ModeForbidden: sequentially learned relations mark forbidden values,
//     which are propagated as pseudo-values, detected as conflicts early,
//     and used to steer backtrace decisions ("the input with the forbidden
//     non-controlling value is selected").
//   - ModeKnown: sequentially learned relations assert implied values
//     directly.
//
// Learned tied gates are asserted as constants (from their validity frame
// on), and a fault whose node is tied to its stuck value is untestable
// outright.
//
// Untestability: a fault is classified untestable when the search space is
// exhausted without hitting the backtrack limit at every window size up to
// the maximum. With an unknown initial state this is the same bounded-proof
// convention sequential ATPG tools such as HITEC report (documented in
// DESIGN.md); sequential learning increases the count because conflicts
// surface early enough to exhaust the search instead of aborting.
package atpg

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Mode selects how learned relations are used.
type Mode int

// Learning-use modes (paper Table 5 columns).
const (
	ModeNoLearning Mode = iota // combinational learning only
	ModeForbidden              // sequential relations as forbidden values
	ModeKnown                  // sequential relations as known values
)

// String names the mode like the paper's table headers.
func (m Mode) String() string {
	switch m {
	case ModeForbidden:
		return "forbidden"
	case ModeKnown:
		return "known"
	default:
		return "nolearn"
	}
}

// Options configures test generation for one fault.
type Options struct {
	// BacktrackLimit aborts the search after this many backtracks per
	// window (the paper uses 30 and 1000).
	BacktrackLimit int

	// Windows lists the time-frame window sizes to try in order
	// (default 1, 2, 4, 8).
	Windows []int

	// Mode selects the use of learned data.
	Mode Mode

	// DB is the frozen snapshot of the learned relation database (may be
	// nil). Being immutable, one snapshot can back any number of
	// concurrent Generate calls.
	DB *imply.Snapshot

	// Ties are the learned tied gates with their validity frames.
	Ties []learn.Tie

	// FillSeed seeds the random fill of unassigned PI values in emitted
	// tests (0 disables random fill, leaving X).
	FillSeed uint64

	// UseCrossFrame also applies learned cross-frame relations (A@t ⟹
	// B@t+dt) inside the expanded window — the extension the paper
	// sketches in Section 3 ("for an ATPG to take advantage of such
	// relations, it needs to work on a window equivalent to the number of
	// time frames across which the relations hold"). Effective in the
	// Forbidden and Known modes.
	UseCrossFrame bool

	// rels is the compiled relation index. Run compiles it once per run
	// and shares it, read-only, with every executor's arena; the public
	// Generate compiles its own per call.
	rels *relIndex
}

func (o *Options) defaults() {
	if o.BacktrackLimit <= 0 {
		o.BacktrackLimit = 30
	}
	if len(o.Windows) == 0 {
		o.Windows = []int{1, 2, 4, 8}
	}
}

// maxWindowLimit caps the largest time-frame window WindowLadder accepts:
// every PODEM executor's arena holds that many frames of the whole
// circuit, so the cap bounds a run's memory whatever a caller asks for.
const maxWindowLimit = 64

// WindowLadder returns the doubling window schedule 1, 2, 4, … up to
// maxWindow (0 = the default 8). A negative maxWindow or one above 64 is
// an error.
func WindowLadder(maxWindow int) ([]int, error) {
	if maxWindow < 0 || maxWindow > maxWindowLimit {
		return nil, fmt.Errorf("atpg: max window %d out of range [0,%d]", maxWindow, maxWindowLimit)
	}
	if maxWindow == 0 {
		maxWindow = 8
	}
	var windows []int
	for w := 1; w <= maxWindow; w *= 2 {
		windows = append(windows, w)
	}
	return windows, nil
}

// Normalized returns the options with unset fields folded to their
// effective defaults — the form the content-addressed store hashes, so an
// explicit Options{BacktrackLimit: 30} and the zero value share a cache
// key.
func (o Options) Normalized() Options {
	o.defaults()
	return o
}

// Outcome classifies the result of Generate.
type Outcome int

// Generate outcomes.
const (
	Detected   Outcome = iota // a test was found
	Untestable                // proven (bounded) untestable
	Aborted                   // backtrack limit exceeded somewhere
)

// String returns "detected", "untestable" or "aborted".
func (o Outcome) String() string {
	switch o {
	case Detected:
		return "detected"
	case Untestable:
		return "untestable"
	default:
		return "aborted"
	}
}

// Result is the outcome of one Generate call.
type Result struct {
	Outcome    Outcome
	Test       [][]logic.V // PI vectors per frame when Detected
	Window     int         // window size that produced the test
	Backtracks int         // total backtracks across windows
}

// Generate runs PODEM for fault f over growing windows. Each call builds a
// private search arena (and relation index), so concurrent calls are safe;
// the drivers instead reuse one arena per executor across faults.
func Generate(c *netlist.Circuit, f fault.Fault, opt Options) Result {
	opt.prepare(c)
	return newArena(c, &opt).generate(f, &opt)
}

// prepare folds in the defaults and compiles the relation index once, for
// every executor of a run to share.
func (o *Options) prepare(c *netlist.Circuit) {
	o.defaults()
	o.rels = buildRelIndex(c, o.DB, o.Mode, o.UseCrossFrame)
}

// relIndex pre-compiles the relations of a DB, filtered by mode, into flat
// per-literal tables: same-frame consequents with their validity depths,
// and, only with UseCrossFrame, cross-frame consequents with their frame
// offsets.
type relIndex struct {
	same, cross relTable
}

// relTable is a CSR list keyed by antecedent literal (litKey): literal k's
// consequents are tgt[off[k]:off[k+1]], in relation order, each packed by
// litKey too; arg is its validity depth (same-frame) or frame offset
// (cross-frame).
type relTable struct {
	off []int32
	tgt []uint32
	arg []int32
}

// litKey packs a literal as node<<1 | val (val 1 = One): its table row,
// and the form a target is stored in.
func litKey(l imply.Lit) uint32 {
	k := uint32(l.Node) << 1
	if l.Val == logic.One {
		k |= 1
	}
	return k
}

// litNode and litVal unpack a literal key or packed target.
func litNode(k uint32) netlist.NodeID { return netlist.NodeID(k >> 1) }

func litVal(k uint32) logic.V {
	if k&1 != 0 {
		return logic.One
	}
	return logic.Zero
}

func buildRelIndex(c *netlist.Circuit, db *imply.Snapshot, mode Mode, crossFrame bool) *relIndex {
	nLits := 2 * c.NumNodes()
	ri := &relIndex{
		same:  relTable{off: make([]int32, nLits+1)},
		cross: relTable{off: make([]int32, nLits+1)},
	}
	if db == nil {
		return ri
	}
	// Two passes over the relations in one order: the first counts each
	// antecedent's consequents, the second places them, so every literal
	// keeps relation order and nothing is allocated but the tables.
	for _, place := range []bool{false, true} {
		for _, r := range db.Relations() {
			if r.Dt != 0 {
				if crossFrame && mode != ModeNoLearning {
					ri.cross.add(place, r.A, r.B, int32(r.Dt))
					ri.cross.add(place, r.B.Not(), r.A.Not(), -int32(r.Dt))
				}
				continue
			}
			if mode == ModeNoLearning && !db.IsCombinational(r.A, r.B, 0) {
				continue
			}
			d := int32(db.DepthOf(r.A, r.B, 0))
			ri.same.add(place, r.A, r.B, d)
			ri.same.add(place, r.B.Not(), r.A.Not(), d)
		}
		if !place {
			ri.same.allocate()
			ri.cross.allocate()
		}
	}
	ri.same.finish()
	ri.cross.finish()
	return ri
}

// add counts the entry a ⟹ b (counting pass) or places it (placing
// pass). While placing, off[k] is literal k's next free slot.
func (t *relTable) add(place bool, a, b imply.Lit, arg int32) {
	k := litKey(a)
	if !place {
		t.off[k+1]++
		return
	}
	i := t.off[k]
	t.off[k]++
	t.tgt[i] = litKey(b)
	t.arg[i] = arg
}

// allocate turns the counts into start offsets and sizes the entries.
func (t *relTable) allocate() {
	for k := 1; k < len(t.off); k++ {
		t.off[k] += t.off[k-1]
	}
	n := t.off[len(t.off)-1]
	t.tgt = make([]uint32, n)
	t.arg = make([]int32, n)
}

// finish restores the start offsets: placing advanced each off[k] to the
// start of literal k+1.
func (t *relTable) finish() {
	copy(t.off[1:], t.off[:len(t.off)-1])
	t.off[0] = 0
}
