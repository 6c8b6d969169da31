// Package gen builds the deterministic synthetic benchmark circuits used by
// the experiment harness.
//
// The paper evaluates on ISCAS 89/93 netlists, four retimed circuits and
// three industrial designs, none of which can be redistributed here. Each
// stand-in matches the paper circuit's flip-flop and gate
// counts exactly and is generated with structural motifs that exercise the
// paper's mechanisms:
//
//   - high-fanout control inputs whose values imply many flip-flop loads
//     (like I2 in Figure 1),
//   - self-loop flip-flops (sticky state bits, the source of invalid
//     states),
//   - reconvergent tie motifs (AND(x, ¬x)) feeding OR-side inputs (like
//     G3 → G10 in Figure 1),
//   - invalid-state consumer gates (AND over correlated flip-flops).
//
// All generation is deterministic from explicit seeds; math/rand is never
// used.
package gen

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Spec parameterizes one synthetic circuit.
type Spec struct {
	Name  string
	FFs   int
	Gates int
	PIs   int // 0: derived from FFs
	POs   int // 0: derived
	Seed  uint64

	// SelfLoopPct is the percentage of flip-flops given a sticky
	// self-loop D-driver (default 12).
	SelfLoopPct int

	// DriverCtrlPct is the percentage of D-drivers wired to a control
	// input (default 30); higher values correlate the state bits and
	// raise the invalid-state count.
	DriverCtrlPct int

	// TieMotifs is the number of deliberate tied-gate motifs (default
	// scaled with size).
	TieMotifs int

	// Domains spreads flip-flops over this many clock domains (default
	// 1); domain 0 keeps ~70% of the elements.
	Domains int

	// SetResetPct is the percentage of flip-flops given an asynchronous
	// set or reset net (default 0); half of those nets are unconstrained
	// (driven by a dedicated PI), half constrained (tied to constant 0).
	SetResetPct int

	// MultiPorts converts this many elements into multi-port latches.
	MultiPorts int

	// FFBiasPct is the percentage of random gate-input pins that read a
	// flip-flop output (default 22). Industrial-scale stand-ins use a
	// small value: dense FF-to-FF coupling makes the learned relation
	// count grow quadratically with the flip-flop count.
	FFBiasPct int
}

func (s *Spec) defaults() {
	if s.PIs == 0 {
		s.PIs = s.FFs/6 + 4
		if s.PIs > 64 {
			s.PIs = 64
		}
	}
	if s.POs == 0 {
		s.POs = s.FFs/8 + 3
		if s.POs > 64 {
			s.POs = 64
		}
	}
	if s.SelfLoopPct == 0 {
		s.SelfLoopPct = 12
	}
	if s.DriverCtrlPct == 0 {
		s.DriverCtrlPct = 30
	}
	if s.FFBiasPct == 0 {
		s.FFBiasPct = 22
	}
	if s.TieMotifs == 0 {
		s.TieMotifs = 1 + s.Gates/400
		if s.TieMotifs > 12 {
			s.TieMotifs = 12
		}
	}
	if s.Domains == 0 {
		s.Domains = 1
	}
	if s.Seed == 0 {
		s.Seed = 0xbead
	}
}

// Synth generates the circuit described by spec.
func Synth(spec Spec) *netlist.Circuit {
	spec.defaults()
	r := logic.NewRand64(spec.Seed)
	b := netlist.NewBuilder(spec.Name)

	// Primary inputs; the first few are high-fanout "control" inputs.
	pis := make([]string, spec.PIs)
	for i := range pis {
		pis[i] = fmt.Sprintf("p%d", i)
		b.PI(pis[i])
	}
	nControls := 2 + spec.PIs/8
	if nControls > spec.PIs {
		nControls = spec.PIs
	}
	controls := pis[:nControls]

	// Flip-flop names (declared later; usable as references now).
	ffs := make([]string, spec.FFs)
	for i := range ffs {
		ffs[i] = fmt.Sprintf("f%d", i)
	}

	// Gate generation. The last driverCount gates are reserved as
	// flip-flop D-drivers with learning-friendly shapes.
	driverCount := spec.FFs
	if driverCount > spec.Gates/2 {
		driverCount = spec.Gates / 2
	}
	plainCount := spec.Gates - driverCount
	if spec.SetResetPct > 0 {
		plainCount-- // the const0 gate below keeps the total exact
	}

	var gates []string    // all generated gate names
	var tieGates []string // tie motif outputs

	pickSrc := func(invOK bool) netlist.Ref {
		var name string
		switch {
		case len(tieGates) > 0 && r.Intn(100) < 3:
			name = tieGates[r.Intn(len(tieGates))]
		case r.Intn(1000) < 5:
			// Controls appear rarely in random logic; their learning-
			// relevant fanout comes from the driver gates below, keeping
			// control fanout bounded as circuits grow.
			name = controls[r.Intn(len(controls))]
		case r.Intn(100) < spec.FFBiasPct && spec.FFs > 0:
			name = ffs[r.Intn(len(ffs))]
		case len(gates) > 0:
			// Locality bias: prefer recent gates.
			lo := 0
			if len(gates) > 40 {
				lo = len(gates) - 40 - r.Intn(len(gates)-40+1)
				if r.Intn(3) > 0 {
					lo = len(gates) - 40
				}
			}
			name = gates[lo+r.Intn(len(gates)-lo)]
		default:
			name = pis[r.Intn(len(pis))]
		}
		if invOK && r.Intn(100) < 25 {
			return netlist.N(name)
		}
		return netlist.P(name)
	}

	ops := []logic.Op{
		logic.OpAnd, logic.OpAnd, logic.OpAnd,
		logic.OpOr, logic.OpOr, logic.OpOr,
		logic.OpNand, logic.OpNand,
		logic.OpNor, logic.OpNor,
		logic.OpNot,
		logic.OpXor,
	}

	tieBudget := spec.TieMotifs
	for i := 0; i < plainCount; i++ {
		name := fmt.Sprintf("g%d", i)
		if tieBudget > 0 && i%97 == 13 {
			// Tie motif: AND(x, ¬x) over a random source.
			src := pis[r.Intn(len(pis))]
			b.Gate(name, logic.OpAnd, netlist.P(src), netlist.N(src))
			tieGates = append(tieGates, name)
			gates = append(gates, name)
			tieBudget--
			continue
		}
		op := ops[r.Intn(len(ops))]
		arity := 2
		if op == logic.OpNot {
			arity = 1
		} else if r.Intn(5) == 0 {
			arity = 3
		}
		refs := make([]netlist.Ref, 0, arity)
		for k := 0; k < arity; k++ {
			refs = append(refs, pickSrc(true))
		}
		b.Gate(name, op, refs...)
		gates = append(gates, name)
	}

	// D-driver gates: correlated, control-dominated shapes.
	drivers := make([]string, spec.FFs)
	for i := 0; i < spec.FFs; i++ {
		if i < driverCount {
			name := fmt.Sprintf("d%d", i)
			ctrl := controls[r.Intn(len(controls))]
			ctrlRef := netlist.P(ctrl)
			if r.Intn(2) == 0 {
				ctrlRef = netlist.N(ctrl)
			}
			switch {
			case r.Intn(100) < spec.SelfLoopPct:
				// Sticky self-loop: f = OR(ctrl, f) or AND(¬ctrl, f).
				if r.Intn(2) == 0 {
					b.Gate(name, logic.OpOr, ctrlRef, netlist.P(ffs[i]))
				} else {
					b.Gate(name, logic.OpAnd, ctrlRef, netlist.P(ffs[i]))
				}
			case len(tieGates) > 0 && r.Intn(100) < 8:
				// Tie-transparent driver (the G10 = OR(I2, G3) motif).
				b.Gate(name, logic.OpOr, ctrlRef, netlist.P(tieGates[r.Intn(len(tieGates))]))
			case r.Intn(100) < spec.DriverCtrlPct:
				b.Gate(name, opsBinary(r), ctrlRef, pickSrc(true))
			default:
				b.Gate(name, opsBinary(r), pickSrc(true), pickSrc(true))
			}
			gates = append(gates, name)
			drivers[i] = name
		} else {
			// No gate budget left: drive from an existing gate.
			drivers[i] = gates[r.Intn(len(gates))]
		}
	}

	// Sequential elements with clock domains and set/reset.
	needConst0 := spec.SetResetPct > 0
	if needConst0 {
		b.Gate("const0", logic.OpConst0)
	}
	srPIs := 0
	for i := 0; i < spec.FFs; i++ {
		clk := netlist.Clock{}
		if spec.Domains > 1 && r.Intn(100) < 30 {
			clk.Domain = int32(1 + r.Intn(spec.Domains-1))
			clk.Phase = int8(r.Intn(2))
		}
		name := ffs[i]
		if i < spec.MultiPorts {
			b.Latch(name, netlist.P(drivers[i]), clk)
			en := fmt.Sprintf("mpen%d", i)
			dat := fmt.Sprintf("mpd%d", i)
			b.PI(en)
			b.PI(dat)
			b.AddPort(name, netlist.P(en), netlist.P(dat))
			continue
		}
		b.DFF(name, netlist.P(drivers[i]), clk)
		if spec.SetResetPct > 0 && r.Intn(100) < spec.SetResetPct {
			constrained := r.Intn(2) == 0
			var net netlist.Ref
			if constrained {
				net = netlist.P("const0")
			} else {
				pin := fmt.Sprintf("sr%d", srPIs)
				srPIs++
				b.PI(pin)
				net = netlist.P(pin)
			}
			if r.Intn(2) == 0 {
				b.SetNet(name, net)
			} else {
				b.ResetNet(name, net)
			}
		}
	}

	// Primary outputs.
	for i := 0; i < spec.POs; i++ {
		var src string
		if r.Intn(3) == 0 && spec.FFs > 0 {
			src = ffs[r.Intn(len(ffs))]
		} else {
			src = gates[r.Intn(len(gates))]
		}
		b.PO(fmt.Sprintf("po%d", i), netlist.P(src))
	}

	c, err := b.Build()
	if err != nil {
		panic("gen: " + spec.Name + ": " + err.Error())
	}
	return c
}

func opsBinary(r *logic.Rand64) logic.Op {
	switch r.Intn(4) {
	case 0:
		return logic.OpAnd
	case 1:
		return logic.OpOr
	case 2:
		return logic.OpNand
	default:
		return logic.OpNor
	}
}
