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
	var es []relEntry
	var f [7][]byte
	for lineNo := 1; sc.Scan(); lineNo++ {
		nf := splitFields(sc.Bytes(), &f)
		if nf == 0 || f[0][0] == '#' {
			continue
		}
		e, err := parseEntry(c, &f, nf)
		if err != nil {
			return nil, fmt.Errorf("imply: line %d: %v", lineNo, err)
		}
		if e.r.A.Node == e.r.B.Node && e.r.Dt == 0 {
			continue // trivial or a tie, as DB.Add rejects it
		}
		e.r = e.r.canonical()
		es = append(es, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Serialize's output is already in order, on which pdqsort is linear.
	slices.SortFunc(es, entryCmp)
	out := es[:0]
	for _, e := range es {
		if k := len(out) - 1; k >= 0 && out[k].r == e.r {
			out[k].m.comb = out[k].m.comb || e.m.comb
			out[k].m.depth = min(out[k].m.depth, e.m.depth)
			continue
		}
		out = append(out, e)
	}
	return newSnapshot(c, out), nil
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

// parseEntry decodes the seven fields of one relation line.
func parseEntry(c *netlist.Circuit, f *[7][]byte, nf int) (relEntry, error) {
	if nf != len(f) {
		return relEntry{}, fmt.Errorf("want %d fields, got %d", len(f), nf)
	}
	a, err := parseLit(c, f[0], f[1])
	if err != nil {
		return relEntry{}, err
	}
	b, err := parseLit(c, f[2], f[3])
	if err != nil {
		return relEntry{}, err
	}
	dt, err := parseInt16(f[4])
	if err != nil {
		return relEntry{}, fmt.Errorf("dt: %v", err)
	}
	var comb bool
	switch string(f[5]) {
	case "true":
		comb = true
	case "false":
	default:
		return relEntry{}, fmt.Errorf("bad comb flag %q", f[5])
	}
	depth, err := parseInt16(f[6])
	if err != nil {
		return relEntry{}, fmt.Errorf("depth: %v", err)
	}
	return relEntry{r: Relation{A: a, B: b, Dt: dt}, m: relMeta{comb: comb, depth: depth}}, nil
}

func parseLit(c *netlist.Circuit, name, val []byte) (Lit, error) {
	n, ok := c.Lookup(string(name))
	if !ok {
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
