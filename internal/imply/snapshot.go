package imply

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Snapshot is a frozen, immutable view of a relation database. It stores
// the canonical relations as one sorted slice with parallel metadata and a
// dense CSR same-frame index keyed by literal — no maps on the read path —
// so any number of ATPG workers, analyses and report generators can share
// one snapshot concurrently without locks.
type Snapshot struct {
	c    *netlist.Circuit
	rels []Relation // canonical relations in relCmp order
	meta []relMeta  // parallel to rels

	// Same-frame implications in CSR form: for literal key k (2*node+val),
	// sfDst[sfOff[k]:sfOff[k+1]] lists the implied literals, sorted.
	sfOff []int32
	sfDst []Lit
}

// Freeze produces an immutable snapshot of the database's current
// contents: it sorts the builder's log and merges its repeats, so the log
// keeps one entry per relation. The builder remains usable; later Adds do
// not affect the returned snapshot.
func (db *DB) Freeze() *Snapshot {
	return newSnapshot(db.c, db.log.merged())
}

// newSnapshot builds a snapshot from distinct canonical entries in relCmp
// order.
func newSnapshot(c *netlist.Circuit, es []relEntry) *Snapshot {
	s := &Snapshot{c: c, rels: make([]Relation, len(es)), meta: make([]relMeta, len(es))}
	for i := range es {
		s.rels[i], s.meta[i] = es[i].relation(), es[i].meta()
	}

	nk := 2 * c.NumNodes()
	s.sfOff = make([]int32, nk+1)
	for _, r := range s.rels {
		if r.Dt != 0 {
			continue
		}
		s.sfOff[litKey(r.A)+1]++
		s.sfOff[litKey(r.B.Not())+1]++
	}
	for k := 0; k < nk; k++ {
		s.sfOff[k+1] += s.sfOff[k]
	}
	s.sfDst = make([]Lit, s.sfOff[nk])
	fill := make([]int32, nk)
	for _, r := range s.rels {
		if r.Dt != 0 {
			continue
		}
		k := litKey(r.A)
		s.sfDst[s.sfOff[k]+fill[k]] = r.B
		fill[k]++
		k = litKey(r.B.Not())
		s.sfDst[s.sfOff[k]+fill[k]] = r.A.Not()
		fill[k]++
	}
	// Buckets fill from relations in relCmp order, so nearly all arrive
	// sorted already; sort only the ones that do not.
	for k := 0; k < nk; k++ {
		if b := s.sfDst[s.sfOff[k]:s.sfOff[k+1]]; !slices.IsSortedFunc(b, litCmp) {
			slices.SortFunc(b, litCmp)
		}
	}
	return s
}

// Circuit returns the owning circuit.
func (s *Snapshot) Circuit() *netlist.Circuit { return s.c }

// Len returns the number of stored (canonical) relations.
func (s *Snapshot) Len() int { return len(s.rels) }

// Relations returns all stored relations in canonical sorted order. The
// returned slice is the snapshot's backing storage and must not be
// modified.
func (s *Snapshot) Relations() []Relation { return s.rels }

// RelationMeta returns the comb flag and history depth of Relations()[i]:
// the same answers IsCombinational and DepthOf give, read by index.
func (s *Snapshot) RelationMeta(i int) (comb bool, depth int) {
	return s.meta[i].comb, int(s.meta[i].depth)
}

// find binary-searches the canonical form of r.
func (s *Snapshot) find(r Relation) (relMeta, bool) {
	if i, ok := slices.BinarySearchFunc(s.rels, r.canonical(), relCmp); ok {
		return s.meta[i], true
	}
	return relMeta{}, false
}

// Has reports whether the relation (in either form) is present.
func (s *Snapshot) Has(a, b Lit, dt int) bool {
	_, ok := s.find(Relation{A: a, B: b, Dt: int16(dt)})
	return ok
}

// IsCombinational reports whether the stored relation is derivable in the
// combinational frame.
func (s *Snapshot) IsCombinational(a, b Lit, dt int) bool {
	m, _ := s.find(Relation{A: a, B: b, Dt: int16(dt)})
	return m.comb
}

// DepthOf returns the history depth of the stored relation (0 if absent).
func (s *Snapshot) DepthOf(a, b Lit, dt int) int {
	m, _ := s.find(Relation{A: a, B: b, Dt: int16(dt)})
	return int(m.depth)
}

// SameFrameImplied returns every literal implied by l within the same
// frame, sorted by (node, value). The returned slice aliases the
// snapshot's storage and must not be modified.
func (s *Snapshot) SameFrameImplied(l Lit) []Lit {
	k := litKey(l)
	return s.sfDst[s.sfOff[k]:s.sfOff[k+1]]
}

// KindOf classifies a relation's endpoints.
func (s *Snapshot) KindOf(r Relation) Kind {
	sa := s.c.IsSeq(r.A.Node)
	sb := s.c.IsSeq(r.B.Node)
	switch {
	case sa && sb:
		return FFFF
	case sa || sb:
		return GateFF
	default:
		return GateGate
	}
}

// Counts tallies same-frame relations by kind. When seqOnly is set, only
// relations that combinational learning cannot derive are counted — the
// quantities reported in the paper's Table 3 ("FF-FF" and "Gate-FF"
// columns: "the relations which can be learned in the combinational logic
// are excluded").
func (s *Snapshot) Counts(seqOnly bool) (ffff, gateFF, gateGate int) {
	for i, r := range s.rels {
		if r.Dt != 0 || (seqOnly && s.meta[i].comb) {
			continue
		}
		switch s.KindOf(r) {
		case FFFF:
			ffff++
		case GateFF:
			gateFF++
		default:
			gateGate++
		}
	}
	return
}

// CrossFrame returns the number of stored relations with dt != 0.
func (s *Snapshot) CrossFrame() int {
	n := 0
	for _, r := range s.rels {
		if r.Dt != 0 {
			n++
		}
	}
	return n
}

// FormatLit renders a literal like "F6=1".
func (s *Snapshot) FormatLit(l Lit) string {
	return fmt.Sprintf("%s=%s", s.c.NameOf(l.Node), l.Val)
}

// FormatRelation renders a relation like "F6=1 -> F4=0" or, for
// cross-frame relations, "F6=1 -> F4=0 @+2".
func (s *Snapshot) FormatRelation(r Relation) string {
	out := s.FormatLit(r.A) + " -> " + s.FormatLit(r.B)
	if r.Dt != 0 {
		out += fmt.Sprintf(" @%+d", r.Dt)
	}
	return out
}

// WriteText dumps all relations, one per line, sorted.
func (s *Snapshot) WriteText(w io.Writer) error {
	for _, r := range s.rels {
		if _, err := fmt.Fprintln(w, s.FormatRelation(r)); err != nil {
			return err
		}
	}
	return nil
}

// Serialize writes the snapshot in the line-oriented format LoadSnapshot
// reads back: one relation per line,
//
//	<nameA> <valA> <nameB> <valB> <dt> <comb> <depth>
//
// Node names come from the owning circuit, so a serialized snapshot can be
// reloaded against any circuit with the same node names (e.g. after a
// process restart, to reuse learning results across ATPG runs). Because
// the relations are canonical and sorted, equal snapshots serialize to
// byte-identical output.
func (s *Snapshot) Serialize(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i, r := range s.rels {
		line = appendLit(line[:0], s.c, r.A)
		line = append(line, ' ')
		line = appendLit(line, s.c, r.B)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(r.Dt), 10)
		line = append(line, ' ')
		line = strconv.AppendBool(line, s.meta[i].comb)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(s.meta[i].depth), 10)
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendLit appends "<name> <value>".
func appendLit(b []byte, c *netlist.Circuit, l Lit) []byte {
	b = append(b, c.NameOf(l.Node)...)
	b = append(b, ' ')
	return append(b, l.Val.String()...)
}

// HasNamed is a test convenience: it resolves "A=1 -> B=0" style queries
// against node names.
func (s *Snapshot) HasNamed(aName string, aVal logic.V, bName string, bVal logic.V, dt int) bool {
	an, ok1 := s.c.Lookup(aName)
	bn, ok2 := s.c.Lookup(bName)
	if !ok1 || !ok2 {
		return false
	}
	return s.Has(Lit{an, aVal}, Lit{bn, bVal}, dt)
}

// InvalidStatePattern is a compact invalid-state description: the
// simultaneous assignment Lits is unreachable.
type InvalidStatePattern struct {
	Lits []Lit
}

// InvalidStates derives one invalid-state pattern from every same-frame
// FF-FF relation: A ⟹ B means the pattern {A, ¬B} is invalid (paper
// Section 3.1: "F6=1 → F4=0 represents the set of invalid states
// (F4,F6)=(1,1)").
func (s *Snapshot) InvalidStates() []InvalidStatePattern {
	var out []InvalidStatePattern
	for _, r := range s.rels {
		if r.Dt != 0 || s.KindOf(r) != FFFF {
			continue
		}
		out = append(out, InvalidStatePattern{Lits: []Lit{r.A, r.B.Not()}})
	}
	return out
}
