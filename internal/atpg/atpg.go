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

	// rels is the compiled relation index. Run and RunPartition compile it
	// once per run and share it, read-only, with every executor's arena;
	// the public Generate compiles its own per call.
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

// relIndex pre-compiles the same-frame relations of a DB into per-literal
// lists with their validity depths, filtered by mode; cross-frame
// relations are compiled separately and used only with UseCrossFrame.
type relIndex struct {
	implied [][]relTarget // indexed by 2*node+val
	cross   [][]crossTarget
}

type relTarget struct {
	lit   imply.Lit
	depth int
}

type crossTarget struct {
	lit imply.Lit
	dt  int
}

func litKey(l imply.Lit) int {
	k := 2 * int(l.Node)
	if l.Val == logic.One {
		k++
	}
	return k
}

func buildRelIndex(c *netlist.Circuit, db *imply.Snapshot, mode Mode, crossFrame bool) *relIndex {
	ri := &relIndex{
		implied: make([][]relTarget, 2*c.NumNodes()),
		cross:   make([][]crossTarget, 2*c.NumNodes()),
	}
	if db == nil {
		return ri
	}
	for _, r := range db.Relations() {
		if r.Dt != 0 {
			if crossFrame && mode != ModeNoLearning {
				ri.addCross(r.A, r.B, int(r.Dt))
				ri.addCross(r.B.Not(), r.A.Not(), -int(r.Dt))
			}
			continue
		}
		comb := db.IsCombinational(r.A, r.B, 0)
		if mode == ModeNoLearning && !comb {
			continue
		}
		d := db.DepthOf(r.A, r.B, 0)
		ri.add(r.A, r.B, d)
		ri.add(r.B.Not(), r.A.Not(), d)
	}
	return ri
}

func (ri *relIndex) add(a, b imply.Lit, depth int) {
	k := litKey(a)
	ri.implied[k] = append(ri.implied[k], relTarget{lit: b, depth: depth})
}

func (ri *relIndex) of(l imply.Lit) []relTarget { return ri.implied[litKey(l)] }

func (ri *relIndex) addCross(a, b imply.Lit, dt int) {
	k := litKey(a)
	ri.cross[k] = append(ri.cross[k], crossTarget{lit: b, dt: dt})
}

func (ri *relIndex) crossOf(l imply.Lit) []crossTarget { return ri.cross[litKey(l)] }
