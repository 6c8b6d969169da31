package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"regexp"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// An input is one netlist a workload feeds to the program, as .bench text:
// every workload starts from the text, so parsing is part of what it
// measures, and two runs with one seed see byte-identical inputs.
type input struct {
	name string // suite name plus the variant tag, e.g. "s953~v3"
	text []byte
}

// baseText renders a suite circuit (or one of the paper's figures) as
// .bench text.
func baseText(name string) ([]byte, error) {
	var c *netlist.Circuit
	switch name {
	case "figure1":
		c = circuits.Figure1()
	case "figure2":
		c = circuits.Figure2()
	default:
		if _, ok := gen.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown circuit %q", name)
		}
		c = gen.MustBuild(name)
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		return nil, fmt.Errorf("write %s: %w", name, err)
	}
	return buf.Bytes(), nil
}

// flippable matches a gate definition whose operation has a complement of
// the same arity; group 1 is the operation.
var flippable = regexp.MustCompile(`(?m)^\S+ = (AND|NAND|OR|NOR)\(`)

var complement = map[string]string{"AND": "NAND", "NAND": "AND", "OR": "NOR", "NOR": "OR"}

// flipAt returns text with the flippable gate at loc replaced by its
// complement (AND↔NAND, OR↔NOR): the structure, sizes and fault-list
// length stay the same, while the learned relations and test outcomes
// near the gate change — a realistic one-line engineering change.
func flipAt(text []byte, loc []int) []byte {
	op := string(text[loc[2]:loc[3]])
	out := make([]byte, 0, len(text)+1)
	out = append(out, text[:loc[2]]...)
	out = append(out, complement[op]...)
	return append(out, text[loc[3]:]...)
}

// variants builds n seeded one-gate variants of a circuit, each flipping
// a different gate. The random stream depends on the seed and the circuit
// name only, so adding a circuit to a workload never changes another
// circuit's inputs.
func variants(name string, seed uint64, n int) ([]input, error) {
	text, err := baseText(name)
	if err != nil {
		return nil, err
	}
	locs := flippable.FindAllSubmatchIndex(text, -1)
	if len(locs) < n {
		return nil, fmt.Errorf("%s: %d flippable gates, need %d variants", name, len(locs), n)
	}
	rng := rand.New(rand.NewPCG(seed, nameHash(name)))
	perm := rng.Perm(len(locs))
	out := make([]input, n)
	for i := range out {
		out[i] = input{name: fmt.Sprintf("%s~v%d", name, i), text: flipAt(text, locs[perm[i]])}
	}
	return out, nil
}

// identifier matches a name token of the .bench format.
var identifier = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// renamed returns a seeded renaming of a circuit's nets: every node name
// becomes n<k> for a seeded permutation k, while the text's line order —
// and with it every node id, the structure and all the work done on it —
// stays the same.
func renamed(name string, seed uint64) (input, error) {
	text, err := baseText(name)
	if err != nil {
		return input{}, err
	}
	c, err := bench.Parse(name, bytes.NewReader(text))
	if err != nil {
		return input{}, fmt.Errorf("parse %s: %w", name, err)
	}
	rng := rand.New(rand.NewPCG(seed, nameHash(name)))
	perm := rng.Perm(c.NumNodes())
	names := make(map[string]string, c.NumNodes())
	for id := range c.NumNodes() {
		names[c.NameOf(netlist.NodeID(id))] = fmt.Sprintf("n%d", perm[id])
	}
	// The header comment names the circuit, not a net; keep it.
	header, body, _ := bytes.Cut(text, []byte("\n"))
	body = identifier.ReplaceAllFunc(body, func(tok []byte) []byte {
		if n, ok := names[string(tok)]; ok {
			return []byte(n)
		}
		return tok
	})
	out := make([]byte, 0, len(header)+1+len(body))
	out = append(append(append(out, header...), '\n'), body...)
	return input{name: fmt.Sprintf("%s~r%d", name, seed), text: out}, nil
}

// parse reads an input into a circuit.
func (in input) parse() (*netlist.Circuit, error) {
	c, err := bench.Parse(in.name, bytes.NewReader(in.text))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", in.name, err)
	}
	return c, nil
}

// nameHash is FNV-1a over the name.
func nameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h
}
