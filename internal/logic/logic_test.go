package logic

import (
	"testing"
	"testing/quick"
)

var allOps = []Op{OpBuf, OpNot, OpAnd, OpNand, OpOr, OpNor, OpXor, OpXnor}

func TestValueString(t *testing.T) {
	cases := map[V]string{Zero: "0", One: "1", X: "X", V(9): "X"}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("V(%d).String() = %q, want %q", v, got, want)
		}
	}
}

func TestNot(t *testing.T) {
	if Zero.Not() != One || One.Not() != Zero || X.Not() != X {
		t.Fatalf("Not truth table broken: %v %v %v", Zero.Not(), One.Not(), X.Not())
	}
}

func TestBoolRoundTrip(t *testing.T) {
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Fatal("FromBool broken")
	}
	if !One.Bool() || Zero.Bool() {
		t.Fatal("Bool broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bool(X) did not panic")
		}
	}()
	_ = X.Bool()
}

func TestAndOrXorTruthTables(t *testing.T) {
	type tc struct{ a, b, and, or, xor V }
	cases := []tc{
		{Zero, Zero, Zero, Zero, Zero},
		{Zero, One, Zero, One, One},
		{One, One, One, One, Zero},
		{Zero, X, Zero, X, X},
		{One, X, X, One, X},
		{X, X, X, X, X},
	}
	for _, c := range cases {
		for _, sw := range []bool{false, true} {
			a, b := c.a, c.b
			if sw {
				a, b = b, a
			}
			if got := And(a, b); got != c.and {
				t.Errorf("And(%v,%v)=%v want %v", a, b, got, c.and)
			}
			if got := Or(a, b); got != c.or {
				t.Errorf("Or(%v,%v)=%v want %v", a, b, got, c.or)
			}
			if got := Xor(a, b); got != c.xor {
				t.Errorf("Xor(%v,%v)=%v want %v", a, b, got, c.xor)
			}
		}
	}
}

func TestParseOp(t *testing.T) {
	for _, op := range allOps {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %v,%v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOp("FROB"); ok {
		t.Error("ParseOp accepted junk")
	}
}

func TestControlling(t *testing.T) {
	cv, ok := OpAnd.Controlling()
	if !ok || cv != Zero {
		t.Errorf("AND controlling = %v,%v", cv, ok)
	}
	cv, ok = OpNor.Controlling()
	if !ok || cv != One {
		t.Errorf("NOR controlling = %v,%v", cv, ok)
	}
	if _, ok := OpXor.Controlling(); ok {
		t.Error("XOR should have no controlling value")
	}
	if OpNand.ControlledOutput() != One || OpNor.ControlledOutput() != Zero {
		t.Error("ControlledOutput broken")
	}
	if !OpNand.Inverts() || OpAnd.Inverts() {
		t.Error("Inverts broken")
	}
}

// evalRef evaluates op over three-valued inputs by enumerating every binary
// completion of the X inputs: if all completions agree, that value is the
// reference result, otherwise X. Eval must equal this reference exactly for
// AND/OR-family gates given their semantics, and must be no stronger
// (i.e. Eval==ref or Eval==X) for XOR-family gates.
func evalRef(op Op, ins []V) V {
	idx := []int{}
	for i, v := range ins {
		if v == X {
			idx = append(idx, i)
		}
	}
	bs := make([]bool, len(ins))
	var result V = X
	first := true
	n := 1 << uint(len(idx))
	for m := 0; m < n; m++ {
		for i, v := range ins {
			if v != X {
				bs[i] = v.Bool()
			}
		}
		for j, i := range idx {
			bs[i] = m&(1<<uint(j)) != 0
		}
		out := FromBool(EvalBool(op, bs))
		if first {
			result = out
			first = false
		} else if result != out {
			return X
		}
	}
	return result
}

func TestEvalAgainstEnumeration(t *testing.T) {
	vals := []V{Zero, One, X}
	for _, op := range allOps {
		arity := 3
		if op == OpBuf || op == OpNot {
			arity = 1
		}
		n := 1
		for i := 0; i < arity; i++ {
			n *= 3
		}
		for m := 0; m < n; m++ {
			ins := make([]V, arity)
			k := m
			for i := range ins {
				ins[i] = vals[k%3]
				k /= 3
			}
			got := EvalSlice(op, ins)
			ref := evalRef(op, ins)
			switch op {
			case OpXor, OpXnor:
				// XOR-family is allowed to be pessimistic but not wrong.
				if got != ref && got != X {
					t.Errorf("Eval(%v,%v)=%v ref %v", op, ins, got, ref)
				}
			default:
				if got != ref {
					t.Errorf("Eval(%v,%v)=%v ref %v", op, ins, got, ref)
				}
			}
		}
	}
}

// TestEvalMonotone checks the fundamental three-valued soundness property:
// refining an X input to a known value never flips an already-known output.
func TestEvalMonotone(t *testing.T) {
	f := func(opIdx uint8, raw [4]uint8, pos uint8, to bool) bool {
		op := allOps[int(opIdx)%len(allOps)]
		arity := 4
		if op == OpBuf || op == OpNot {
			arity = 1
		}
		ins := make([]V, arity)
		for i := range ins {
			ins[i] = V(raw[i] % 3)
		}
		before := EvalSlice(op, ins)
		p := int(pos) % arity
		if ins[p] != X {
			return true
		}
		ins[p] = FromBool(to)
		after := EvalSlice(op, ins)
		if before.Known() && after != before {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestEvalConst(t *testing.T) {
	if Eval(OpConst0) != Zero || Eval(OpConst1) != One {
		t.Fatal("const eval broken")
	}
}

func TestV5GoodFaulty(t *testing.T) {
	cases := []struct {
		v    V5
		g, f V
	}{
		{Zero5, Zero, Zero}, {One5, One, One}, {D, One, Zero}, {DBar, Zero, One}, {X5, X, X},
	}
	for _, c := range cases {
		if c.v.Good() != c.g || c.v.Faulty() != c.f {
			t.Errorf("%v: good=%v faulty=%v", c.v, c.v.Good(), c.v.Faulty())
		}
		if Compose(c.g, c.f) != c.v {
			t.Errorf("Compose(%v,%v) != %v", c.g, c.f, c.v)
		}
	}
	if Compose(X, One) != X5 {
		t.Error("Compose with X should be X5")
	}
}

func TestV5Not(t *testing.T) {
	if D.Not5() != DBar || DBar.Not5() != D || Zero5.Not5() != One5 || X5.Not5() != X5 {
		t.Fatal("Not5 broken")
	}
	if !D.Faulted() || One5.Faulted() {
		t.Fatal("Faulted broken")
	}
	want := map[V5]string{Zero5: "0", One5: "1", D: "D", DBar: "D'", X5: "X"}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("V5(%d).String()=%q want %q", v, v.String(), s)
		}
	}
}

// TestEval5Composition checks Eval5Slice against independent good/faulty
// three-valued evaluation over random inputs.
func TestEval5Composition(t *testing.T) {
	f := func(opIdx uint8, raw [3]uint8) bool {
		op := allOps[int(opIdx)%len(allOps)]
		arity := 3
		if op == OpBuf || op == OpNot {
			arity = 1
		}
		ins := make([]V5, arity)
		g := make([]V, arity)
		fv := make([]V, arity)
		for i := range ins {
			ins[i] = V5(raw[i] % 5)
			g[i] = ins[i].Good()
			fv[i] = ins[i].Faulty()
		}
		out := Eval5Slice(op, ins)
		gw := EvalSlice(op, g)
		fw := EvalSlice(op, fv)
		if gw.Known() && fw.Known() {
			return out == Compose(gw, fw)
		}
		return out == X5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPVSetGet(t *testing.T) {
	var p PV
	p.Set(3, One)
	p.Set(17, Zero)
	if p.Get(3) != One || p.Get(17) != Zero || p.Get(0) != X {
		t.Fatal("PV Set/Get broken")
	}
	p.Set(3, Zero)
	if p.Get(3) != Zero || !p.Valid() {
		t.Fatal("PV overwrite broken")
	}
	p.Set(3, X)
	if p.Get(3) != X {
		t.Fatal("PV clear broken")
	}
}

// TestPEvalLanewise checks that parallel evaluation agrees with scalar
// evaluation in every lane for random vectors.
func TestPEvalLanewise(t *testing.T) {
	r := NewRand64(42)
	for iter := 0; iter < 200; iter++ {
		op := allOps[r.Intn(len(allOps))]
		arity := 3
		if op == OpBuf || op == OpNot {
			arity = 1
		}
		ins := make([]PV, arity)
		for i := range ins {
			for lane := 0; lane < W; lane++ {
				ins[i].Set(lane, V(r.Intn(3)))
			}
		}
		out := PEvalSlice(op, ins)
		if !out.Valid() {
			t.Fatalf("invalid PV from %v", op)
		}
		scalar := make([]V, arity)
		for lane := 0; lane < W; lane++ {
			for i := range ins {
				scalar[i] = ins[i].Get(lane)
			}
			want := EvalSlice(op, scalar)
			if got := out.Get(lane); got != want {
				t.Fatalf("op %v lane %d: parallel %v scalar %v (ins %v)", op, lane, got, want, scalar)
			}
		}
	}
}

// TestBEvalLanewise checks binary 64-way evaluation against EvalBool.
func TestBEvalLanewise(t *testing.T) {
	r := NewRand64(7)
	for iter := 0; iter < 200; iter++ {
		op := allOps[r.Intn(len(allOps))]
		arity := 3
		if op == OpBuf || op == OpNot {
			arity = 1
		}
		ins := make([]uint64, arity)
		for i := range ins {
			ins[i] = r.Next()
		}
		out := BEvalSlice(op, ins)
		bs := make([]bool, arity)
		for lane := 0; lane < W; lane++ {
			for i := range ins {
				bs[i] = ins[i]&(1<<uint(lane)) != 0
			}
			want := EvalBool(op, bs)
			if got := out&(1<<uint(lane)) != 0; got != want {
				t.Fatalf("op %v lane %d: got %v want %v", op, lane, got, want)
			}
		}
	}
}

func TestPVConst(t *testing.T) {
	if PVConst(One).Get(5) != One || PVConst(Zero).Get(63) != Zero || PVConst(X).Get(0) != X {
		t.Fatal("PVConst broken")
	}
}

func TestRand64Deterministic(t *testing.T) {
	a, b := NewRand64(1), NewRand64(1)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("Rand64 not deterministic")
		}
	}
	c := NewRand64(2)
	if a.Next() == c.Next() {
		t.Log("different seeds produced equal first values (allowed but unlikely)")
	}
	saw := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := c.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		saw[v] = true
	}
	if len(saw) != 10 {
		t.Errorf("Intn(10) hit only %d distinct values", len(saw))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	c.Intn(0)
}
