package atpg

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Single-pass five-valued gate evaluation. Each fanin cell is read once,
// through its pin inversion, as a set of per-machine flags; OR-ing and
// AND-ing the flags over the fanin yields, per machine, "some input is
// 0/1" and "every input is 0/1/known", and XOR-ing them yields the parity
// of the 1 inputs. That decides every op in both machines without building
// per-machine input slices, so evaluation never allocates at any fanin
// width. logic.Eval5Slice is the reference semantics (see eval5_test.go).

// Per-machine flags of a five-valued cell.
const (
	g0 uint8 = 1 << iota // good machine is 0
	g1                   // good machine is 1
	gk                   // good machine is known
	f0                   // faulty machine is 0
	f1                   // faulty machine is 1
	fk                   // faulty machine is known
)

// v5flags maps a cell to its flags; v5flagsInv does the same through an
// inverting pin.
var (
	v5flags    = [8]uint8{logic.Zero5: g0 | gk | f0 | fk, logic.One5: g1 | gk | f1 | fk, logic.D: g1 | gk | f0 | fk, logic.DBar: g0 | gk | f1 | fk}
	v5flagsInv = [8]uint8{logic.Zero5: g1 | gk | f1 | fk, logic.One5: g0 | gk | f0 | fk, logic.D: g0 | gk | f1 | fk, logic.DBar: g1 | gk | f0 | fk}
)

// compose5 composes good and faulty components (logic.Compose): X unless
// both are known.
var compose5 = [3][3]logic.V5{
	logic.Zero: {logic.Zero: logic.Zero5, logic.One: logic.DBar},
	logic.One:  {logic.Zero: logic.D, logic.One: logic.One5},
}

// eval5 evaluates op over the fanin pins' cells in vals (one frame of the
// expanded model), with the semantics of logic.Eval5Slice. It reads only a
// cell's low three bits, its value, so a []logic.V5 serves as well.
func eval5[C ~uint8](op logic.Op, fanin []netlist.Pin, vals []C) logic.V5 {
	switch op {
	case logic.OpConst0:
		return logic.Zero5
	case logic.OpConst1:
		return logic.One5
	case logic.OpBuf, logic.OpNot:
		v := logic.V5(vals[fanin[0].Node] & 7)
		if fanin[0].Inv != (op == logic.OpNot) {
			v = v.Not5()
		}
		return v
	}
	some, all, par := uint8(0), ^uint8(0), uint8(0)
	for _, p := range fanin {
		v := vals[p.Node] & 7
		fl := v5flags[v]
		if p.Inv {
			fl = v5flagsInv[v]
		}
		some |= fl
		all &= fl
		par ^= fl
	}
	var g, f logic.V
	switch op {
	case logic.OpAnd, logic.OpNand:
		g = andOf(some, all, g0, g1)
		f = andOf(some, all, f0, f1)
	case logic.OpOr, logic.OpNor:
		// OR is AND with the roles of 0 and 1 swapped.
		g = andOf(some, all, g1, g0).Not()
		f = andOf(some, all, f1, f0).Not()
	case logic.OpXor, logic.OpXnor:
		g = parityOf(all, par, gk, g1)
		f = parityOf(all, par, fk, f1)
	default:
		panic(fmt.Sprintf("atpg: eval of unknown op %d", op))
	}
	if op.Inverts() {
		g, f = g.Not(), f.Not()
	}
	return compose5[g][f]
}

// andOf is one machine's AND from the accumulated flags: 0 if some input
// is 0, 1 if every input is 1, else X.
func andOf(some, all, zero, one uint8) logic.V {
	switch {
	case some&zero != 0:
		return logic.Zero
	case all&one != 0:
		return logic.One
	}
	return logic.X
}

// parityOf is one machine's XOR: the parity of its 1 inputs when every
// input is known, else X.
func parityOf(all, par, known, one uint8) logic.V {
	switch {
	case all&known == 0:
		return logic.X
	case par&one != 0:
		return logic.One
	}
	return logic.Zero
}
