// Package circuits provides exact reconstructions of the two example
// circuits in the paper (Figures 1 and 2).
//
// The paper shows the circuits only as drawings; the netlists here were
// reverse-engineered by constraint-solving against Table 1 (the single-node
// simulation rows for every stem), Table 2 (the learned invalid-state
// relations per learning stage), and every worked derivation in Sections
// 3.1-3.2 (the multiple-node injections for F3=0, F1=0 and G15=1, the tie
// proofs for G3 and G15, and the G2≡G4 equivalence narrative). The
// reconstruction reproduces all of those observations, with four small
// deviations:
//
//   - D1: the I1 rows of Table 1 also list G12, a twin of G3;
//   - D2: the F2=0 row of Table 1 lists F5=0 at T=1, which the paper's own
//     Table 2 requires;
//   - D3: G12 is combinationally tied to 0 alongside G3;
//   - D4: the reconstruction reaches the two relations of Table 2's
//     gate-equivalence column through the tie constants.
package circuits

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Figure1 builds the reconstruction of the paper's Figure 1: five primary
// inputs I1-I5, fifteen gates G1-G15, six flip-flops F1-F6 in one clock
// domain. Its five fanout stems are I1, I2, F1, F2 and F3, exactly as in
// the paper.
//
// Key learned facts reproduced on this circuit: G3 (and its twin G12) are
// combinationally tied to 0; G15 is sequentially tied to 0; G2 ≡ G4
// combinationally once the ties are folded in; and the Table 2 relation
// sets per learning stage.
func Figure1() *netlist.Circuit {
	b := netlist.NewBuilder("figure1")
	for _, pi := range []string{"I1", "I2", "I3", "I4", "I5"} {
		b.PI(pi)
	}
	clk := netlist.Clock{}

	b.Gate("G1", logic.OpOr, netlist.P("F2"), netlist.P("G12"))
	b.Gate("G2", logic.OpAnd, netlist.P("F1"), netlist.P("G1"))
	b.Gate("G3", logic.OpAnd, netlist.P("I1"), netlist.N("I1"))
	b.Gate("G4", logic.OpAnd, netlist.P("F1"), netlist.P("F2"))
	b.Gate("G5", logic.OpOr, netlist.P("F3"), netlist.P("I4"))
	b.Gate("G6", logic.OpNor, netlist.P("I2"), netlist.P("F3"))
	b.Gate("G7", logic.OpAnd, netlist.P("I2"), netlist.P("I3"))
	b.Gate("G8", logic.OpAnd, netlist.P("F2"), netlist.P("I5"))
	b.Gate("G9", logic.OpOr, netlist.P("I2"), netlist.P("G2"))
	b.Gate("G10", logic.OpOr, netlist.P("I2"), netlist.P("G3"))
	b.Gate("G11", logic.OpOr, netlist.P("I2"), netlist.P("F3"))
	b.Gate("G12", logic.OpAnd, netlist.P("I1"), netlist.N("I1"))
	b.Gate("G13", logic.OpBuf, netlist.P("G7"))
	b.Gate("G14", logic.OpNor, netlist.P("F1"), netlist.P("F2"))
	b.Gate("G15", logic.OpNor, netlist.P("F3"), netlist.P("G14"))

	b.DFF("F1", netlist.P("G9"), clk)
	b.DFF("F2", netlist.P("G10"), clk)
	b.DFF("F3", netlist.P("G11"), clk)
	b.DFF("F4", netlist.P("G6"), clk)
	b.DFF("F5", netlist.P("G8"), clk)
	b.DFF("F6", netlist.P("G13"), clk)

	b.PO("O1", netlist.P("G4"))
	b.PO("O2", netlist.P("G5"))
	b.PO("O3", netlist.P("G15"))
	b.PO("O4", netlist.P("F4"))
	b.PO("O5", netlist.P("F5"))
	b.PO("O6", netlist.P("F6"))
	return b.MustBuild()
}

// Figure2 builds the reconstruction of the paper's Figure 2: the circuit
// whose multiple-node learning extracts G9=0 → F2=0, a relation that
// backward/forward injection on G9 cannot find, and whose s-a-1 fault on
// G9 demonstrates known-value vs forbidden-value implication use in ATPG
// (Section 4).
func Figure2() *netlist.Circuit {
	b := netlist.NewBuilder("figure2")
	for _, pi := range []string{"I1", "I2", "I3", "I4", "I5", "I6"} {
		b.PI(pi)
	}
	clk := netlist.Clock{}

	b.Gate("G1", logic.OpAnd, netlist.P("I2"), netlist.P("I4"))
	b.Gate("G2", logic.OpNand, netlist.P("I2"), netlist.P("I3"))
	b.Gate("G3", logic.OpAnd, netlist.P("I3"), netlist.P("I5"))
	b.Gate("G4", logic.OpNor, netlist.P("I2"), netlist.P("G1"))
	b.Gate("G5", logic.OpNor, netlist.P("I3"), netlist.P("G3"))
	b.Gate("G6", logic.OpAnd, netlist.P("F1"), netlist.P("F2"))
	b.Gate("G7", logic.OpAnd, netlist.P("F2"), netlist.P("F3"))
	b.Gate("G8", logic.OpOr, netlist.P("F4"), netlist.P("F5"))
	b.Gate("G9", logic.OpOr, netlist.P("G6"), netlist.P("G7"), netlist.P("G8"))

	b.DFF("F1", netlist.P("I1"), clk)
	b.DFF("F2", netlist.P("G2"), clk)
	b.DFF("F3", netlist.P("I6"), clk)
	b.DFF("F4", netlist.P("G4"), clk)
	b.DFF("F5", netlist.P("G5"), clk)

	b.PO("O1", netlist.P("G9"))
	return b.MustBuild()
}
