package bench

// This file keeps the .bench reader and writer as they were before both
// moved onto bytes, as differential oracles: a bufio.Scanner with a fixed
// 1 MiB buffer, a string per line and strings.Split/TrimSpace per gate,
// and an fmt.Fprintf per written line. FuzzParseMatchesReference and
// TestWriteMatchesReference compare them with Parse and Write.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Parse reads a circuit in extended .bench format.
func legacyParse(name string, r io.Reader) (*netlist.Circuit, error) {
	b := netlist.NewBuilder(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if err := legacyParseLine(b, line); err != nil {
			return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	return b.Build()
}

func legacyParseLine(b *netlist.Builder, line string) error {
	// Directive forms: INPUT(x), OUTPUT(x), SET(ff, net), RESET(ff, net),
	// PORT(ff, en, d).
	if head, args, ok := legacyCallForm(line); ok {
		switch strings.ToUpper(head) {
		case "INPUT":
			if len(args) != 1 {
				return fmt.Errorf("INPUT takes one name")
			}
			b.PI(args[0])
			return nil
		case "OUTPUT":
			if len(args) != 1 {
				return fmt.Errorf("OUTPUT takes one name")
			}
			ref, err := legacyPinRef(args[0])
			if err != nil {
				return err
			}
			b.PO("out_"+strings.TrimPrefix(args[0], "!"), ref)
			return nil
		case "SET", "RESET", "PORT":
			return legacyParseSeqDirective(b, strings.ToUpper(head), args)
		}
	}

	// Assignment form: name = OP(args...) [@clkD:P]
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("unrecognized line %q", line)
	}
	name := strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])

	clk := netlist.Clock{}
	if at := strings.LastIndexByte(rhs, '@'); at >= 0 {
		ann := strings.TrimSpace(rhs[at+1:])
		rhs = strings.TrimSpace(rhs[:at])
		var err error
		clk, err = legacyParseClock(ann)
		if err != nil {
			return err
		}
	}

	head, args, ok := legacyCallForm(rhs)
	if !ok {
		return fmt.Errorf("bad right-hand side %q", rhs)
	}
	opName := strings.ToUpper(head)
	switch opName {
	case "DFF", "LATCH":
		if len(args) != 1 {
			return fmt.Errorf("%s takes one input", opName)
		}
		ref, err := legacyPinRef(args[0])
		if err != nil {
			return err
		}
		if opName == "DFF" {
			b.DFF(name, ref, clk)
		} else {
			b.Latch(name, ref, clk)
		}
		return nil
	}
	op, ok := logic.ParseOp(opName)
	if !ok {
		return fmt.Errorf("unknown gate type %q", head)
	}
	refs := make([]netlist.Ref, 0, len(args))
	for _, a := range args {
		ref, err := legacyPinRef(a)
		if err != nil {
			return err
		}
		refs = append(refs, ref)
	}
	b.Gate(name, op, refs...)
	return nil
}

func legacyParseSeqDirective(b *netlist.Builder, head string, args []string) error {
	switch head {
	case "SET", "RESET":
		if len(args) != 2 {
			return fmt.Errorf("%s takes (ff, net)", head)
		}
		ref, err := legacyPinRef(args[1])
		if err != nil {
			return err
		}
		if head == "SET" {
			b.SetNet(args[0], ref)
		} else {
			b.ResetNet(args[0], ref)
		}
	case "PORT":
		if len(args) != 3 {
			return fmt.Errorf("PORT takes (ff, enable, data)")
		}
		en, err := legacyPinRef(args[1])
		if err != nil {
			return err
		}
		d, err := legacyPinRef(args[2])
		if err != nil {
			return err
		}
		b.AddPort(args[0], en, d)
	}
	return nil
}

// callForm parses "HEAD(a, b, c)" into head and args.
func legacyCallForm(s string) (head string, args []string, ok bool) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", nil, false
	}
	head = strings.TrimSpace(s[:open])
	if head == "" || strings.ContainsAny(head, " \t") {
		return "", nil, false
	}
	inner := strings.TrimSpace(s[open+1 : len(s)-1])
	if inner == "" {
		return head, nil, true
	}
	parts := strings.Split(inner, ",")
	args = make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return "", nil, false
		}
		args = append(args, p)
	}
	return head, args, true
}

func legacyPinRef(s string) (netlist.Ref, error) {
	inv := false
	for strings.HasPrefix(s, "!") {
		inv = !inv
		s = strings.TrimSpace(s[1:])
	}
	if s == "" {
		return netlist.P(""), fmt.Errorf("empty net reference")
	}
	if inv {
		return netlist.N(s), nil
	}
	return netlist.P(s), nil
}

func legacyParseClock(ann string) (netlist.Clock, error) {
	if !strings.HasPrefix(ann, "clk") {
		return netlist.Clock{}, fmt.Errorf("bad clock annotation %q", ann)
	}
	rest := ann[3:]
	dom, phase := rest, "0"
	if i := strings.IndexByte(rest, ':'); i >= 0 {
		dom, phase = rest[:i], rest[i+1:]
	}
	d, err := strconv.Atoi(dom)
	if err != nil {
		return netlist.Clock{}, fmt.Errorf("bad clock domain in %q", ann)
	}
	p, err := strconv.Atoi(phase)
	if err != nil {
		return netlist.Clock{}, fmt.Errorf("bad clock phase in %q", ann)
	}
	return netlist.Clock{Domain: int32(d), Phase: int8(p)}, nil
}

// Write renders the circuit in the extended .bench format. Nodes are
// written in a stable order: inputs, outputs, then definitions in id order.
func legacyWrite(w io.Writer, c *netlist.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %s\n", c.Name, c.Stats())
	for _, id := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.NameOf(id))
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", legacyPinString(c, po.Pin))
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		switch n.Kind {
		case netlist.KindGate:
			args := make([]string, 0, 4)
			for _, p := range c.Fanin(netlist.NodeID(id)) {
				args = append(args, legacyPinString(c, p))
			}
			fmt.Fprintf(bw, "%s = %s(%s)\n", n.Name, n.Op, strings.Join(args, ", "))
		case netlist.KindDFF, netlist.KindLatch:
			kw := "DFF"
			if n.Kind == netlist.KindLatch {
				kw = "LATCH"
			}
			fmt.Fprintf(bw, "%s = %s(%s) @clk%d:%d\n",
				n.Name, kw, legacyPinString(c, n.Seq.D), n.Seq.Clock.Domain, n.Seq.Clock.Phase)
		}
	}
	// Set/reset and ports after all definitions.
	var extras []string
	for _, id := range c.Seqs {
		si := c.Nodes[id].Seq
		name := c.NameOf(id)
		if si.HasSet() {
			extras = append(extras, fmt.Sprintf("SET(%s, %s)", name, legacyPinString(c, si.SetNet)))
		}
		if si.HasReset() {
			extras = append(extras, fmt.Sprintf("RESET(%s, %s)", name, legacyPinString(c, si.ResetNet)))
		}
		for _, pt := range si.Ports {
			extras = append(extras, fmt.Sprintf("PORT(%s, %s, %s)",
				name, legacyPinString(c, pt.Enable), legacyPinString(c, pt.Data)))
		}
	}
	sort.Strings(extras)
	for _, e := range extras {
		fmt.Fprintln(bw, e)
	}
	return bw.Flush()
}

func legacyPinString(c *netlist.Circuit, p netlist.Pin) string {
	if p.Inv {
		return "!" + c.NameOf(p.Node)
	}
	return c.NameOf(p.Node)
}
