package atpg

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// checkEval5 compares eval5 with logic.Eval5Slice on one input assignment:
// fanin pin i reads cell i of vals, inverted when bit i of inv is set.
func checkEval5(t *testing.T, op logic.Op, vals []logic.V5, inv uint) {
	t.Helper()
	fanin := make([]netlist.Pin, len(vals))
	ins := make([]logic.V5, len(vals))
	for i, v := range vals {
		fanin[i] = netlist.Pin{Node: netlist.NodeID(i), Inv: inv>>i&1 != 0}
		ins[i] = v
		if fanin[i].Inv {
			ins[i] = v.Not5()
		}
	}
	if got, want := eval5(op, fanin, vals), logic.Eval5Slice(op, ins); got != want {
		t.Fatalf("%v over %v (inversion mask %b): eval5 %v, Eval5Slice %v", op, vals, inv, got, want)
	}
}

// TestEval5MatchesEval5Slice checks the single-pass evaluator against the
// reference exhaustively: every op, fanin widths 1 to 4, all 5^k input
// cells and every pin-inversion mask.
func TestEval5MatchesEval5Slice(t *testing.T) {
	for op := logic.OpBuf; op <= logic.OpConst1; op++ {
		for k := 1; k <= 4; k++ {
			vals := make([]logic.V5, k)
			combos := 1
			for range k {
				combos *= 5
			}
			for c := range combos {
				for i, x := 0, c; i < k; i, x = i+1, x/5 {
					vals[i] = logic.V5(x % 5)
				}
				for inv := uint(0); inv < 1<<k; inv++ {
					checkEval5(t, op, vals, inv)
				}
			}
		}
	}
}

// TestEval5WideGates samples fanin widths past any small fixed buffer, with
// X-sparse inputs so known outputs occur too.
func TestEval5WideGates(t *testing.T) {
	r := logic.NewRand64(5)
	for op := logic.OpBuf; op <= logic.OpConst1; op++ {
		for k := 5; k <= 24; k++ {
			vals := make([]logic.V5, k)
			for range 200 {
				for i := range vals {
					vals[i] = logic.V5(1 + r.Intn(4))
					if r.Intn(4*k) == 0 {
						vals[i] = logic.X5
					}
				}
				checkEval5(t, op, vals, uint(r.Next()))
			}
		}
	}
}
