// Package seqlearn is the public facade of the repository: a sequential
// learning engine for gate-level circuits (implications, invalid states and
// tied gates learned by forward three-valued simulation across time frames)
// and a sequential ATPG that consumes the learned data, reproducing
// El-Maleh, Kassab and Rajski, "A Fast Sequential Learning Technique for
// Real Circuits with Application to Enhancing ATPG Performance" (DAC 1998).
//
// Quick start:
//
//	b := seqlearn.NewBuilder("demo")
//	b.PI("a")
//	b.Gate("g", seqlearn.OpOr, seqlearn.P("a"), seqlearn.P("q"))
//	b.DFF("q", seqlearn.P("g"), seqlearn.Clock{})
//	b.PO("o", seqlearn.P("q"))
//	c := b.MustBuild()
//
//	res := seqlearn.Learn(c, seqlearn.LearnOptions{})
//	fmt.Println(res.DB.Len(), "relations,", len(res.Ties), "tied gates")
//
//	run := seqlearn.GenerateTests(c, seqlearn.RunOptions{
//		ATPG: seqlearn.ATPGOptions{Mode: seqlearn.ModeForbidden, DB: res.DB},
//	})
//	fmt.Println(run.Detected, "faults detected")
//
// The subsystems are exposed through type aliases so their documentation
// lives with the implementations: netlist (circuit model), learn (the
// paper's contribution), atpg, fault, fires, equiv, bench (the file
// format), and gen (the synthetic benchmark suite).
package seqlearn

import (
	"io"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/fires"
	"repro/internal/gen"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Circuit modeling.
type (
	// Circuit is a validated gate-level sequential circuit.
	Circuit = netlist.Circuit
	// Builder constructs circuits by name with forward references.
	Builder = netlist.Builder
	// Ref is a named, possibly inverted connection used by the builder.
	Ref = netlist.Ref
	// Clock identifies a clock domain and phase.
	Clock = netlist.Clock
	// NodeID identifies a node within a circuit.
	NodeID = netlist.NodeID
)

// V is a three-valued logic value.
type V = logic.V

// Logic values.
const (
	X    = logic.X
	Zero = logic.Zero
	One  = logic.One
)

// Mode selects how the ATPG uses learned relations.
type Mode = atpg.Mode

// Gate operations for Builder.Gate.
const (
	OpBuf    = logic.OpBuf
	OpNot    = logic.OpNot
	OpAnd    = logic.OpAnd
	OpNand   = logic.OpNand
	OpOr     = logic.OpOr
	OpNor    = logic.OpNor
	OpXor    = logic.OpXor
	OpXnor   = logic.OpXnor
	OpConst0 = logic.OpConst0
	OpConst1 = logic.OpConst1
)

// NewBuilder returns a circuit builder.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// P references a net by name.
func P(name string) Ref { return netlist.P(name) }

// N references a net by name with an inversion bubble.
func N(name string) Ref { return netlist.N(name) }

// Learning (the paper's core contribution).
type (
	// LearnOptions configures Learn; the zero value is the paper's setup
	// sharded over one simulation worker per core (set Parallelism: 1 for
	// a serial run — results are bit-identical either way).
	LearnOptions = learn.Options
	// LearnResult carries relations, ties, equivalences and statistics.
	LearnResult = learn.Result
	// Tie is a learned tied gate.
	Tie = learn.Tie
	// ImplicationSnapshot is the frozen, immutable learned-relation
	// database produced by Learn (LearnResult.DB) and consumed by the
	// ATPG and the untestability analyses; one snapshot is safe for any
	// number of concurrent readers without locks.
	ImplicationSnapshot = imply.Snapshot
)

// Learn runs sequential learning (single-node + multiple-node phases, tie
// extraction, gate equivalences, per-clock-class handling) plus classical
// combinational learning on c. The single-node and multiple-node sweeps
// shard across LearnOptions.Parallelism workers with a deterministic
// merge, so the result does not depend on the worker count.
func Learn(c *Circuit, opt LearnOptions) *LearnResult { return learn.Learn(c, opt) }

// Test generation.
type (
	// ATPGOptions configures per-fault test generation.
	ATPGOptions = atpg.Options
	// RunOptions configures a full fault-list run; RunOptions.Parallelism
	// shards the PODEM search and the fault-dropping simulation over
	// concurrent workers with results bit-identical to a serial run, and
	// RunOptions.CompactTests drops redundant tests by reverse-order
	// fault simulation after generation.
	RunOptions = atpg.RunOptions
	// RunResult summarizes detected/untestable/aborted counts and carries
	// the emitted tests with their target faults.
	RunResult = atpg.RunResult
	// Fault is a stuck-at fault on a node output.
	Fault = fault.Fault
	// FaultDetection is the per-fault outcome of a fault-simulation pass.
	FaultDetection = fault.Detection
)

// Learning-use modes for the ATPG (paper Section 4 / Table 5).
const (
	ModeNoLearning = atpg.ModeNoLearning
	ModeForbidden  = atpg.ModeForbidden
	ModeKnown      = atpg.ModeKnown
)

// GenerateTests runs the ATPG over a fault list with fault dropping; every
// emitted test is verified by the independent fault simulator. With
// RunOptions.Parallelism != 1 the run shards over concurrent PODEM workers
// and fault-simulation clones, all reading one frozen implication
// snapshot; the counts, tests and backtrack totals stay bit-identical to
// the serial run.
func GenerateTests(c *Circuit, opt RunOptions) RunResult { return atpg.Run(c, opt) }

// SimulateFaults fault-simulates the collapsed-or-given fault list against
// one test sequence, sharded over workers (0 = one per core), and returns
// per-fault outcomes in input order.
func SimulateFaults(c *Circuit, faults []Fault, test [][]V, workers int) []FaultDetection {
	ps := fault.NewParallelSim(c, workers)
	ps.LoadSequence(test, nil)
	return ps.Detect(faults)
}

// GenerateTest targets a single fault.
func GenerateTest(c *Circuit, f Fault, opt ATPGOptions) atpg.Result {
	return atpg.Generate(c, f, opt)
}

// CollapsedFaults returns the collapsed stuck-at fault universe.
func CollapsedFaults(c *Circuit) []Fault {
	reps, _ := fault.Collapse(c)
	return reps
}

// Untestable-fault identification (paper Table 4).

// TieUntestableFaults returns the faults proven untestable by learned tied
// gates.
func TieUntestableFaults(c *Circuit, lr *LearnResult) []Fault {
	return fires.TieUntestable(c, lr).Untestable
}

// FiresUntestableFaults runs the FIRE/FIRES-style stem-conflict analysis;
// useRelations folds learned invalid-state relations in.
func FiresUntestableFaults(c *Circuit, lr *LearnResult, useRelations bool) []Fault {
	return fires.Fires(c, lr, fires.Options{UseRelations: useRelations}).Untestable
}

// Netlist I/O.

// ParseBench reads an extended ISCAS-89 .bench netlist.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return bench.Parse(name, r) }

// WriteBench writes a circuit in the extended .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Example and benchmark circuits.

// Figure1 returns the reconstruction of the paper's Figure 1 circuit.
func Figure1() *Circuit { return circuits.Figure1() }

// Figure2 returns the reconstruction of the paper's Figure 2 circuit.
func Figure2() *Circuit { return circuits.Figure2() }

// Benchmark builds a named circuit from the paper's evaluation suite, e.g.
// "s5378" or "indust1": a synthetic stand-in with the paper circuit's
// flip-flop and gate counts, since the original netlists cannot be
// redistributed.
func Benchmark(name string) *Circuit { return gen.MustBuild(name) }

// BenchmarkNames lists the suite circuits in paper order.
func BenchmarkNames() []string {
	out := make([]string, len(gen.Suite))
	for i, e := range gen.Suite {
		out[i] = e.Name
	}
	return out
}
