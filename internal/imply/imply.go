// Package imply stores learned implication relations.
//
// A relation "A=va at frame t implies B=vb at frame t+dt" is written
// A ⟹ B with displacement dt. By the contrapositive law it is the same
// fact as ¬B ⟹ ¬A with displacement -dt, so the database canonicalizes
// every relation before storing it and deduplicates across contrapositive
// forms — exactly the convention the paper uses when it reports, e.g.,
// F6=1→F4=0 once rather than together with F4=1→F6=0.
//
// Same-frame (dt == 0) relations between sequential elements are
// *invalid-state relations*: A ∧ ¬B is an unreachable state pattern.
//
// The package splits the database into a mutable builder (DB), which the
// learner populates, and a frozen, immutable view (Snapshot, produced by
// DB.Freeze), which every consumer reads. The builder is an append-only
// log of canonical relations; Freeze sorts it with a radix sort and merges
// repeats, the same sort-and-merge LoadSnapshot applies to serialized
// lines. The snapshot stores sorted slices plus a dense same-frame index —
// no maps on either path — and is safe for any number of concurrent
// readers without locks.
package imply

import (
	"cmp"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Lit is a literal: a node carrying a known value (0 or 1).
type Lit struct {
	Node netlist.NodeID
	Val  logic.V
}

// Not returns the complemented literal.
func (l Lit) Not() Lit { return Lit{Node: l.Node, Val: l.Val.Not()} }

// less orders literals by (node, value).
func (l Lit) less(o Lit) bool {
	if l.Node != o.Node {
		return l.Node < o.Node
	}
	return l.Val < o.Val
}

// Relation is a canonicalized implication A ⟹ B with frame displacement Dt:
// A at frame t implies B at frame t+Dt.
type Relation struct {
	A, B Lit
	Dt   int16
}

// contrapositive returns the equivalent flipped relation.
func (r Relation) contrapositive() Relation {
	return Relation{A: r.B.Not(), B: r.A.Not(), Dt: -r.Dt}
}

// canonical returns the preferred form among r and its contrapositive:
// positive displacement first, then lexicographic literal order.
func (r Relation) canonical() Relation {
	c := r.contrapositive()
	switch {
	case r.Dt > c.Dt:
		return r
	case c.Dt > r.Dt:
		return c
	case r.A.less(c.A) || (r.A == c.A && !c.B.less(r.B)):
		return r
	default:
		return c
	}
}

// Kind classifies a relation by its endpoints.
type Kind uint8

// Relation kinds as counted in the paper's Table 3.
const (
	FFFF     Kind = iota // both endpoints sequential elements
	GateFF               // exactly one endpoint sequential
	GateGate             // no sequential endpoint
)

// litKey densely indexes a literal as 2*node+val for array-backed lookup
// structures.
func litKey(l Lit) int {
	k := 2 * int(l.Node)
	if l.Val == logic.One {
		k++
	}
	return k
}

// litCmp orders literals by (node, value).
func litCmp(a, b Lit) int {
	if a.Node != b.Node {
		return cmp.Compare(a.Node, b.Node)
	}
	return cmp.Compare(a.Val, b.Val)
}

// relCmp is the canonical relation order of a Snapshot: displacement,
// then antecedent, then consequent.
func relCmp(a, b Relation) int {
	if a.Dt != b.Dt {
		return cmp.Compare(a.Dt, b.Dt)
	}
	if a.A != b.A {
		return litCmp(a.A, b.A)
	}
	return litCmp(a.B, b.B)
}

// DB is the mutable, write-only *builder* half of the implication
// database for one circuit. Learning (Add) appends canonical relations to
// a log; Freeze sorts the log, merges repeats of one relation (the comb
// flag OR-ed, the minimum depth kept) and produces the immutable Snapshot
// every reader — ATPG, FIRES, the harness, the tests — consumes (the same
// sort-and-merge LoadSnapshot applies to serialized lines). Every relation
// carries a flag recording whether it is derivable in the combinational
// logic alone (frame 0, no crossing of sequential elements); the paper's
// Table 3 reports only the relations that are *not* (what only sequential
// learning can extract), and the ATPG's no-sequential-learning baseline
// uses only the ones that are. A DB is not safe for concurrent use.
type DB struct {
	c   *netlist.Circuit
	log relLog // canonical relations, merged up to the last Freeze
}

// NewDB returns an empty relation database for c.
func NewDB(c *netlist.Circuit) *DB {
	return &DB{c: c}
}

// relMeta carries per-relation bookkeeping: whether the relation is
// derivable in the combinational frame, and the history depth needed for it
// to hold (a relation derived across k frames is valid only at frames >= k
// of any execution).
type relMeta struct {
	comb  bool
	depth int16
}

// Add records the relation a ⟹ b with displacement dt; comb marks it as
// derivable in the combinational frame, depth the frames of history its
// derivation used. It reports whether the relation was accepted. Repeats
// of a relation, in either contrapositive form, merge at Freeze: the comb
// flag is OR-ed and the minimum depth kept. Trivial (a==b) and
// contradictory (a==¬b, which is a tie, not a relation) inputs are
// rejected, as are unknown-valued literals.
func (db *DB) Add(a, b Lit, dt int, comb bool, depth int) bool {
	if !a.Val.Known() || !b.Val.Known() {
		return false
	}
	if a.Node == b.Node && dt == 0 {
		return false
	}
	r := Relation{A: a, B: b, Dt: int16(dt)}.canonical()
	db.log.add(newEntry(r, relMeta{comb: comb, depth: int16(depth)}))
	return true
}
