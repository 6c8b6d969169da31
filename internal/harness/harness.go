// Package harness regenerates the paper's tables. It is shared by the
// cmd/tables executable and the repository benchmarks (bench_test.go), so
// that every figure and table has exactly one implementation.
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/fires"
	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/sim"
)

// Table1 prints the single-node simulation rows of the reconstructed
// Figure 1 (the paper's Table 1).
func Table1(w io.Writer) error {
	c := circuits.Figure1()
	lr := learn.Learn(c, learn.Options{SingleNodeOnly: true, KeepRows: true, SkipComb: true})
	tbl := report.New("Table 1: single-node simulation rows for the stems of Figure 1 (reconstruction)",
		"Stem", "T=0", "T=1", "T=2", "T=3")
	for _, row := range lr.Rows {
		cells := make([]any, 5)
		cells[0] = fmt.Sprintf("%s=%s", c.NameOf(row.Stem), row.Val)
		for t := 0; t < 4; t++ {
			if t < len(row.Frames) {
				skip := map[netlist.NodeID]bool{}
				if t == 0 {
					skip[row.Stem] = true
				}
				cells[t+1] = sim.FormatFrame(c, row.Frames[t], skip)
			} else {
				cells[t+1] = "{}"
			}
		}
		tbl.Row(cells...)
	}
	return tbl.Fprint(w)
}

// Table2 prints the learned invalid-state relations of Figure 1 per
// learning stage (the paper's Table 2).
func Table2(w io.Writer) error {
	c := circuits.Figure1()
	single := learn.Learn(c, learn.Options{SingleNodeOnly: true, SkipComb: true})
	full := learn.Learn(c, learn.Options{SkipComb: true})

	ffRels := func(r *learn.Result) []string {
		var out []string
		for _, rel := range r.DB.Relations() {
			if rel.Dt != 0 || r.DB.KindOf(rel) != imply.FFFF {
				continue
			}
			out = append(out, r.DB.FormatRelation(rel))
		}
		return out
	}
	s := ffRels(single)
	f := ffRels(full)
	seen := map[string]bool{}
	for _, rel := range s {
		seen[rel] = true
	}

	t := report.New("Table 2: learned invalid-state relations for Figure 1 (reconstruction)",
		"Stage", "Relation")
	for _, rel := range s {
		t.Row("single-node", rel)
	}
	for _, rel := range f {
		if !seen[rel] {
			t.Row("multiple-node (ties+equivalence)", rel)
		}
	}
	return t.Fprint(w)
}

// Table3Row is one measured row of Table 3.
type Table3Row struct {
	Entry  gen.Entry
	FFFF   int
	GateFF int
	Ties   int
	CPU    time.Duration
	Stats  learn.Stats
}

// Table3 runs sequential learning over the suite and prints the paper's
// Table 3 layout with paper-reported values alongside. maxGates skips
// circuits above the size budget (0 = no limit).
func Table3(w io.Writer, maxGates int) ([]Table3Row, error) {
	t := report.New("Table 3: sequential learning experiments (synthetic stand-ins; paper values in parentheses)",
		"Circuit", "FFs", "Gates", "FF-FF", "(paper)", "Gate-FF", "(paper)", "CPU", "(paper s)")
	var rows []Table3Row
	for _, e := range gen.Suite {
		if maxGates > 0 && e.Gates > maxGates {
			continue
		}
		c := gen.Build(e)
		// Combinational-learning marking is what "excludes the relations
		// which can be learned in the combinational logic"; skip it only
		// for the very largest circuits where the 2N-injection sweep
		// dominates.
		opts := learn.Options{SkipComb: e.Gates > 100000}
		lr := learn.Learn(c, opts)
		ffff, gateFF, _ := lr.DB.Counts(true)
		row := Table3Row{Entry: e, FFFF: ffff, GateFF: gateFF, Ties: len(lr.Ties), CPU: lr.Stats.Duration, Stats: lr.Stats}
		rows = append(rows, row)
		t.Row(e.Name, e.FFs, e.Gates,
			ffff, fmt.Sprintf("(%d)", e.PaperFFFF),
			gateFF, fmt.Sprintf("(%d)", e.PaperGateFF),
			fmt.Sprintf("%.2fs", row.CPU.Seconds()), fmt.Sprintf("(%.2f)", e.PaperCPU))
	}
	return rows, t.Fprint(w)
}

// Table4Circuits are the circuits compared in the paper's Table 4.
var Table4Circuits = []string{"s5378", "s3330", "s9234", "s13207", "s15850", "s38417", "s38584"}

// Table4Row is one measured row of Table 4.
type Table4Row struct {
	Name       string
	TieCount   int
	FiresCount int
	PaperTie   int
	PaperFires int
}

var paperTable4 = map[string][2]int{
	"s5378":  {441, 367},
	"s3330":  {232, 161},
	"s9234":  {61, 284},
	"s13207": {182, 893},
	"s15850": {69, 332},
	"s38417": {192, 147},
	"s38584": {538, 1437},
}

// Table4 compares untestable faults identified by tie gates against the
// FIRES-style analysis. maxGates skips circuits above the size budget.
func Table4(w io.Writer, maxGates int) ([]Table4Row, error) {
	t := report.New("Table 4: untestable faults — tie gates vs FIRES (synthetic stand-ins; paper values in parentheses)",
		"Circuit", "Tie gates", "(paper)", "FIRES", "(paper)")
	var rows []Table4Row
	for _, name := range Table4Circuits {
		e, _ := gen.Lookup(name)
		if maxGates > 0 && e.Gates > maxGates {
			continue
		}
		c := gen.Build(e)
		lr := learn.Learn(c, learn.Options{})
		tie := fires.TieUntestable(c, lr)
		fr := fires.Fires(c, lr, fires.Options{UseRelations: true})
		p := paperTable4[name]
		row := Table4Row{Name: name, TieCount: tie.Count(), FiresCount: fr.Count(), PaperTie: p[0], PaperFires: p[1]}
		rows = append(rows, row)
		t.Row(name, row.TieCount, fmt.Sprintf("(%d)", p[0]), row.FiresCount, fmt.Sprintf("(%d)", p[1]))
	}
	return rows, t.Fprint(w)
}

// Table5Circuits are the circuits of the paper's Table 5.
var Table5Circuits = []string{
	"s1423", "s3330", "s3384", "s4863", "s5378", "s6669", "s13207",
	"s510jcsrre", "s510josrre", "s832jcsrre", "scfjisdre",
}

// Table5Cell is one (circuit, backtrack limit, mode) measurement.
type Table5Cell struct {
	Name       string
	Limit      int
	Mode       atpg.Mode
	Total      int
	Detected   int
	Untestable int
	CPU        time.Duration
}

// Table5Options bounds the experiment.
type Table5Options struct {
	Circuits  []string // default Table5Circuits
	Limits    []int    // default {30, 1000}
	MaxFaults int      // per circuit (0 = all)
	MaxGates  int      // skip circuits above this size (0 = no limit)
	Windows   []int    // ATPG windows (default {1,2,4,8})

	// Workers shards each atpg.Run over this many PODEM workers and
	// fault-simulation shards (0 = one per core, 1 = serial). Every cell
	// is bit-identical for any value; only the CPU column changes.
	Workers int
}

// Table5 runs the ATPG experiment grid and prints the paper's Table 5
// layout.
func Table5(w io.Writer, opt Table5Options) ([]Table5Cell, error) {
	if opt.Circuits == nil {
		opt.Circuits = Table5Circuits
	}
	if opt.Limits == nil {
		opt.Limits = []int{30, 1000}
	}
	modes := []atpg.Mode{atpg.ModeNoLearning, atpg.ModeForbidden, atpg.ModeKnown}
	t := report.New("Table 5: ATPG with and without sequential learning (synthetic stand-ins)",
		"Circuit", "Faults", "Limit",
		"Det(none)", "Unt(none)", "CPU(none)",
		"Det(forb)", "Unt(forb)", "CPU(forb)",
		"Det(known)", "Unt(known)", "CPU(known)")
	var cells []Table5Cell
	for _, name := range opt.Circuits {
		e, ok := gen.Lookup(name)
		if !ok {
			continue
		}
		if opt.MaxGates > 0 && e.Gates > opt.MaxGates {
			continue
		}
		c := gen.Build(e)
		lr := learn.Learn(c, learn.Options{})
		// The no-learning baseline knows only what combinational learning
		// can know (comb ties); the learning modes get everything,
		// including the untestable faults the tie analysis identifies as
		// a learning by-product (paper Section 5.1).
		combTies := append([]learn.Tie{}, lr.CombTies...)
		allTies := append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...)
		tieUntestable := fires.TieUntestable(c, lr).Untestable
		faults := atpg.TargetFaults(c, atpg.RunOptions{MaxFaults: opt.MaxFaults})
		for _, limit := range opt.Limits {
			var rowCells []any
			rowCells = append(rowCells, name, len(faults), limit)
			for _, mode := range modes {
				ties := allTies
				var pre []fault.Fault
				if mode == atpg.ModeNoLearning {
					ties = combTies
				} else {
					pre = tieUntestable
				}
				res := atpg.Run(c, atpg.RunOptions{
					Faults:        faults,
					PreUntestable: pre,
					Parallelism:   opt.Workers,
					ATPG: atpg.Options{
						BacktrackLimit: limit,
						Windows:        opt.Windows,
						Mode:           mode,
						DB:             lr.DB,
						Ties:           ties,
						FillSeed:       0x7e57 + uint64(mode),
					},
				})
				cells = append(cells, Table5Cell{
					Name: name, Limit: limit, Mode: mode,
					Total: res.Total, Detected: res.Detected,
					Untestable: res.Untestable, CPU: res.Duration,
				})
				rowCells = append(rowCells, res.Detected, res.Untestable,
					fmt.Sprintf("%.2fs", res.Duration.Seconds()))
			}
			t.Row(rowCells...)
		}
	}
	return cells, t.Fprint(w)
}

// Figure2Demo prints the Section 4 demonstration on Figure 2: the learned
// relation and the per-mode ATPG effort for the G9 s-a-1 fault.
func Figure2Demo(w io.Writer) error {
	c := circuits.Figure2()
	lr := learn.Learn(c, learn.Options{})
	fmt.Fprintf(w, "Figure 2 reconstruction: %s\n", c.Stats())
	g9 := imply.Lit{Node: c.MustLookup("G9"), Val: logic.Zero}
	f2 := imply.Lit{Node: c.MustLookup("F2"), Val: logic.Zero}
	fmt.Fprintf(w, "learned G9=0 -> F2=0: %v (combinationally derivable: %v)\n",
		lr.DB.Has(g9, f2, 0), lr.DB.IsCombinational(g9, f2, 0))

	target := fault.Fault{Node: c.MustLookup("G9"), Stuck: logic.One}
	t := report.New("ATPG for G9 s-a-1 by mode", "Mode", "Outcome", "Backtracks", "Frames")
	for _, mode := range []atpg.Mode{atpg.ModeNoLearning, atpg.ModeForbidden, atpg.ModeKnown} {
		res := atpg.Generate(c, target, atpg.Options{
			BacktrackLimit: 1000, Windows: []int{1, 2, 3}, Mode: mode, DB: lr.DB, FillSeed: 3,
		})
		t.Row(mode.String(), res.Outcome.String(), res.Backtracks, len(res.Test))
	}
	return t.Fprint(w)
}
