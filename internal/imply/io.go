package imply

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// LoadSnapshot reads relations written by Snapshot.Serialize and returns
// them as a frozen snapshot for c — the cross-process consumer path: a
// daemon (or a later run) rebuilds the immutable read view of a learned
// database from its serialized form. Node names are resolved against c, so
// any circuit with the same node names works.
//
// Lines may come in any order and in either contrapositive form; each is
// canonicalized, and repeats merge exactly as DB.Add merges them (the comb
// flag is OR-ed, the minimum depth kept), so the result equals adding
// every line to a DB and freezing it. Blank lines and lines starting with
// '#' are skipped. A line without exactly seven fields, with an unknown
// node, a value other than 0/1, a comb flag other than true/false, or a
// dt or depth outside int16 is an error naming its line number.
func LoadSnapshot(c *netlist.Circuit, r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var log relLog
	var f [7][]byte
	p := entryParser{c: c}
	for lineNo := 1; sc.Scan(); lineNo++ {
		nf := splitFields(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		r, m, err := p.parse(&f, nf)
		if err != nil {
			return nil, fmt.Errorf("imply: line %d: %v", lineNo, err)
		}
		if r.A.Node == r.B.Node && r.Dt == 0 {
			continue // trivial or a tie, as DB.Add rejects it
		}
		log.add(newEntry(r.canonical(), m))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	return newSnapshot(c, log.merged()), nil
}

// splitFields splits line at ASCII white space into f and returns the
// number of fields, which may exceed len(f): the surplus is counted but
// not stored.
func splitFields(line []byte, f *[7][]byte) int {
	n := 0
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if n < len(f) {
			f[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\r' || b == '\v' || b == '\f'
}

// entryParser decodes relation lines against one circuit. It remembers
// the previous line's antecedent: Serialize writes relations sorted by
// (dt, A, B), so consecutive lines mostly share it, and equal name bytes
// skip the name lookup.
type entryParser struct {
	c     *netlist.Circuit
	aName []byte // the previous antecedent's name, nil before the first
	aNode netlist.NodeID
}

// parse decodes the seven fields of one relation line.
func (p *entryParser) parse(f *[7][]byte, nf int) (Relation, relMeta, error) {
	if nf != len(f) {
		return Relation{}, relMeta{}, fmt.Errorf("want %d fields, got %d", len(f), nf)
	}
	an, ok := p.antecedent(f[0])
	a, err := parseLit(an, ok, f[0], f[1])
	if err != nil {
		return Relation{}, relMeta{}, err
	}
	bn, ok := p.c.Lookup(string(f[2]))
	b, err := parseLit(bn, ok, f[2], f[3])
	if err != nil {
		return Relation{}, relMeta{}, err
	}
	dt, err := parseInt16(f[4])
	if err != nil {
		return Relation{}, relMeta{}, fmt.Errorf("dt: %v", err)
	}
	var comb bool
	switch string(f[5]) {
	case "true":
		comb = true
	case "false":
	default:
		return Relation{}, relMeta{}, fmt.Errorf("bad comb flag %q", f[5])
	}
	depth, err := parseInt16(f[6])
	if err != nil {
		return Relation{}, relMeta{}, fmt.Errorf("depth: %v", err)
	}
	return Relation{A: a, B: b, Dt: dt}, relMeta{comb: comb, depth: depth}, nil
}

// antecedent resolves an antecedent's node name, reusing the previous
// line's node when the name bytes are equal.
func (p *entryParser) antecedent(name []byte) (netlist.NodeID, bool) {
	if p.aName == nil || !bytes.Equal(name, p.aName) {
		n, ok := p.c.Lookup(string(name))
		if !ok {
			return 0, false
		}
		p.aName, p.aNode = append(p.aName[:0], name...), n
	}
	return p.aNode, true
}

// parseLit builds the literal of a resolved node (found is false for an
// unknown name) and its value field.
func parseLit(n netlist.NodeID, found bool, name, val []byte) (Lit, error) {
	if !found {
		return Lit{}, fmt.Errorf("unknown node %q", name)
	}
	switch string(val) {
	case "0":
		return Lit{Node: n, Val: logic.Zero}, nil
	case "1":
		return Lit{Node: n, Val: logic.One}, nil
	}
	return Lit{}, fmt.Errorf("bad value %q", val)
}

// parseInt16 parses a decimal that must fit in int16.
func parseInt16(b []byte) (int16, error) {
	v, err := strconv.ParseInt(string(b), 10, 16)
	return int16(v), err
}
