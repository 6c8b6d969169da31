package logic

// V5 is a five-valued D-algebra value used by the test generator. D means
// "1 in the good circuit, 0 in the faulty circuit"; DBar the reverse.
type V5 uint8

// The five values. X5 is the zero value.
const (
	X5 V5 = iota
	Zero5
	One5
	D    // good 1 / faulty 0
	DBar // good 0 / faulty 1
)

// String returns "X", "0", "1", "D" or "D'".
func (v V5) String() string {
	switch v {
	case Zero5:
		return "0"
	case One5:
		return "1"
	case D:
		return "D"
	case DBar:
		return "D'"
	default:
		return "X"
	}
}

// Known reports whether v is not X.
func (v V5) Known() bool { return v != X5 }

// Faulted reports whether v carries a fault effect (D or D̄).
func (v V5) Faulted() bool { return v == D || v == DBar }

// Good returns the good-machine three-valued component of v.
func (v V5) Good() V {
	switch v {
	case Zero5, DBar:
		return Zero
	case One5, D:
		return One
	default:
		return X
	}
}

// Faulty returns the faulty-machine three-valued component of v.
func (v V5) Faulty() V {
	switch v {
	case Zero5, D:
		return Zero
	case One5, DBar:
		return One
	default:
		return X
	}
}

// Compose builds a V5 from good and faulty machine components. If either
// component is X the result is X5 (the pessimistic composite).
func Compose(good, faulty V) V5 {
	if !good.Known() || !faulty.Known() {
		return X5
	}
	switch {
	case good == One && faulty == One:
		return One5
	case good == Zero && faulty == Zero:
		return Zero5
	case good == One && faulty == Zero:
		return D
	default:
		return DBar
	}
}

// Not5 returns the complement of v.
func (v V5) Not5() V5 {
	switch v {
	case Zero5:
		return One5
	case One5:
		return Zero5
	case D:
		return DBar
	case DBar:
		return D
	default:
		return X5
	}
}

// Eval5Slice evaluates op over five-valued inputs by evaluating the good and
// faulty machines separately and composing the result. This is exact for the
// monotone composite semantics used in ATPG.
func Eval5Slice(op Op, ins []V5) V5 {
	// Evaluate good and faulty machines with the three-valued evaluator.
	// Stack-allocate for the common small-fanin case.
	var bufG, bufF [8]V
	g := bufG[:0]
	f := bufF[:0]
	for _, v := range ins {
		g = append(g, v.Good())
		f = append(f, v.Faulty())
	}
	gv := EvalSlice(op, g)
	fv := EvalSlice(op, f)
	if gv == X && fv == X {
		return X5
	}
	if gv.Known() && fv.Known() {
		return Compose(gv, fv)
	}
	// One side known, the other X: the composite is unknown unless both
	// machines agree, which they cannot when one is X.
	return X5
}
