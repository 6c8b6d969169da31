// Package bench reads and writes sequential circuits in an extended
// ISCAS-89 ".bench" format.
//
// The classic format:
//
//	# comment
//	INPUT(I1)
//	OUTPUT(O1)
//	F1 = DFF(G9)
//	G3 = AND(I1, G2)
//	G2 = NOT(I1)
//
// Extensions (all backward compatible):
//
//   - Inverted pins: a leading "!" on an operand, e.g. G3 = AND(I1, !I1),
//     avoids materializing inverter gates.
//   - Clock domains and phases: F1 = DFF(G9) @clk0:1 places F1 in clock
//     domain 0, phase 1 (default @clk0:0).
//   - Latches: F2 = LATCH(G4) with the same clock annotation.
//   - Asynchronous set/reset: SET(F1, net) and RESET(F1, net) lines.
//   - Multi-port latches: PORT(F2, enableNet, dataNet) lines.
//   - Constants: G5 = CONST0() / CONST1().
//
// Type checking and cycle detection are inherited from the netlist builder.
package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// maxLine bounds a line's length: Parse fails with bufio.ErrTooLong on a
// line of maxLine bytes or more before its newline, as a bufio.Scanner
// with a maxLine buffer does.
const maxLine = 1 << 20

// Parse reads a circuit in extended .bench format. It reads the whole
// text, fails on a read error before parsing any of it, sizes the builder
// from the line count, tokenizes each line in place and copies only the
// names of new nets.
func Parse(name string, r io.Reader) (*netlist.Circuit, error) {
	pooled := textBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*pooled)[:0])
	_, err := buf.ReadFrom(r)
	text := buf.Bytes()
	defer putText(pooled, text)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	p := parser{b: netlist.NewBuilder(name)}
	// A line defines at most one node, and gates average about two pins.
	hint := min(bytes.Count(text, []byte{'\n'})+1, maxSizeHint)
	p.b.Grow(hint, 2*hint)
	for lineNo := 1; len(text) > 0; lineNo++ {
		line := text
		if i := bytes.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = nil
		}
		if len(line) >= maxLine {
			return nil, fmt.Errorf("bench: %w", bufio.ErrTooLong)
		}
		line = bytes.TrimSpace(line)
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = bytes.TrimSpace(line[:i])
		}
		if len(line) == 0 {
			continue
		}
		if err := p.line(line); err != nil {
			return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
		}
	}
	return p.b.Build()
}

// maxSizeHint caps the nodes Parse reserves room for ahead (about 2 MB of
// nodes, pins and name map), so that text of blank or comment lines
// cannot make it reserve memory per line. Larger circuits grow as they
// parse.
const maxSizeHint = 1 << 14

// textBufs recycles the text buffers of Parse and Write: the parser
// copies every name it keeps and Write's writer may not retain the bytes,
// so each buffer is garbage once the call returns.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledText caps the buffers textBufs keeps, so that one huge netlist
// does not stay pinned in the pool.
const maxPooledText = 4 << 20

// putText returns buf, now backed by text, to textBufs.
func putText(buf *[]byte, text []byte) {
	if cap(text) <= maxPooledText {
		*buf = text[:0]
		textBufs.Put(buf)
	}
}

// parser holds the builder and the scratch slices every line reuses.
type parser struct {
	b    *netlist.Builder
	args [][]byte      // the current call's arguments
	pins []netlist.Ref // the current gate's pins
	up   []byte        // the current call's head, upper-cased
}

func (p *parser) line(line []byte) error {
	if p.plainGate(line) {
		return nil
	}

	// Directive forms: INPUT(x), OUTPUT(x), SET(ff, net), RESET(ff, net),
	// PORT(ff, en, d).
	if head, inner, ok := splitCall(line); ok {
		switch kw := p.upper(head); string(kw) {
		case "INPUT", "OUTPUT", "SET", "RESET", "PORT":
			if args, ok := p.split(inner); ok {
				return p.directive(kw, args)
			}
		}
	}

	// Assignment form: name = OP(args...) [@clkD:P]
	eq := bytes.IndexByte(line, '=')
	if eq < 0 {
		return fmt.Errorf("unrecognized line %q", line)
	}
	name := bytes.TrimSpace(line[:eq])
	rhs := bytes.TrimSpace(line[eq+1:])

	clk := netlist.Clock{}
	if at := bytes.LastIndexByte(rhs, '@'); at >= 0 {
		ann := bytes.TrimSpace(rhs[at+1:])
		rhs = bytes.TrimSpace(rhs[:at])
		var err error
		clk, err = parseClock(ann)
		if err != nil {
			return err
		}
	}

	head, inner, ok := splitCall(rhs)
	var args [][]byte
	if ok {
		args, ok = p.split(inner)
	}
	if !ok {
		return fmt.Errorf("bad right-hand side %q", rhs)
	}
	opName := p.upper(head)
	switch string(opName) {
	case "DFF", "LATCH":
		if len(args) != 1 {
			return fmt.Errorf("%s takes one input", opName)
		}
		ref, err := p.pinRef(args[0])
		if err != nil {
			return err
		}
		if string(opName) == "DFF" {
			p.b.DFF(string(name), ref, clk)
		} else {
			p.b.Latch(string(name), ref, clk)
		}
		return nil
	}
	op, ok := logic.ParseOp(string(opName))
	if !ok {
		return fmt.Errorf("unknown gate type %q", head)
	}
	p.pins = p.pins[:0]
	for _, a := range args {
		ref, err := p.pinRef(a)
		if err != nil {
			return err
		}
		p.pins = append(p.pins, ref)
	}
	p.b.Gate(string(name), op, p.pins...)
	return nil
}

// plain marks the bytes a name may hold for plainGate: printable ASCII
// other than the blank and the syntax characters.
var plain = func() (t [256]bool) {
	for c := '!'; c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range "=(),!#@" {
		t[c] = false
	}
	return t
}()

// plainEnd returns the end of the run of plain bytes in s from i.
func plainEnd(s []byte, i int) int {
	for i < len(s) && plain[s[i]] {
		i++
	}
	return i
}

// plainGate defines the gate of a line in the exact shape Write emits,
// "name = OP(a, !b)" with plain names and a gate op, in one pass. It
// reports false, having changed nothing, for any other line; the general
// path then handles it, with the same result for the lines this accepts.
// It exists for speed alone: gate lines are nearly all of a netlist, and
// without this pass Parse takes about a quarter longer on s5378.
func (p *parser) plainGate(line []byte) bool {
	i := plainEnd(line, 0)
	if i == 0 || !bytes.HasPrefix(line[i:], []byte(" = ")) {
		return false
	}
	j := plainEnd(line, i+3)
	if j == i+3 || j == len(line) || line[j] != '(' || line[len(line)-1] != ')' {
		return false
	}
	op, ok := logic.ParseOp(string(p.upper(line[i+3 : j])))
	if !ok {
		return false
	}
	p.pins = p.pins[:0]
	for args := line[j+1 : len(line)-1]; len(args) > 0; {
		inv := args[0] == '!'
		start := 0
		if inv {
			start = 1
		}
		end := plainEnd(args, start)
		if end == start {
			return false
		}
		pin := args[start:end]
		if args = args[end:]; len(args) > 0 {
			if len(args) == 2 || !bytes.HasPrefix(args, []byte(", ")) {
				return false
			}
			args = args[2:]
		}
		p.pins = append(p.pins, p.b.RefBytes(pin, inv))
	}
	p.b.Gate(string(line[:i]), op, p.pins...)
	return true
}

// directive applies an INPUT, OUTPUT, SET, RESET or PORT line; kw is the
// upper-cased keyword.
func (p *parser) directive(kw []byte, args [][]byte) error {
	switch string(kw) {
	case "INPUT":
		if len(args) != 1 {
			return fmt.Errorf("INPUT takes one name")
		}
		p.b.PI(string(args[0]))
	case "OUTPUT":
		if len(args) != 1 {
			return fmt.Errorf("OUTPUT takes one name")
		}
		ref, err := p.pinRef(args[0])
		if err != nil {
			return err
		}
		p.b.PO("out_"+string(bytes.TrimPrefix(args[0], []byte("!"))), ref)
	case "SET", "RESET":
		if len(args) != 2 {
			return fmt.Errorf("%s takes (ff, net)", kw)
		}
		ref, err := p.pinRef(args[1])
		if err != nil {
			return err
		}
		if string(kw) == "SET" {
			p.b.SetNet(string(args[0]), ref)
		} else {
			p.b.ResetNet(string(args[0]), ref)
		}
	case "PORT":
		if len(args) != 3 {
			return fmt.Errorf("PORT takes (ff, enable, data)")
		}
		en, err := p.pinRef(args[1])
		if err != nil {
			return err
		}
		d, err := p.pinRef(args[2])
		if err != nil {
			return err
		}
		p.b.AddPort(string(args[0]), en, d)
	}
	return nil
}

// splitCall splits "HEAD(inner)" into its trimmed head and inner text. The
// head must be non-empty and free of blanks.
func splitCall(s []byte) (head, inner []byte, ok bool) {
	open := bytes.IndexByte(s, '(')
	if open < 0 || s[len(s)-1] != ')' {
		return nil, nil, false
	}
	head = bytes.TrimSpace(s[:open])
	if len(head) == 0 || bytes.IndexByte(head, ' ') >= 0 || bytes.IndexByte(head, '\t') >= 0 {
		return nil, nil, false
	}
	return head, bytes.TrimSpace(s[open+1 : len(s)-1]), true
}

// split cuts a call's inner text at commas into trimmed arguments, held in
// p.args until the next call. An empty argument fails; empty inner text
// has none.
func (p *parser) split(inner []byte) ([][]byte, bool) {
	p.args = p.args[:0]
	for len(inner) > 0 {
		a, rest, more := bytes.Cut(inner, []byte{','})
		if a = bytes.TrimSpace(a); len(a) == 0 {
			return nil, false
		}
		p.args = append(p.args, a)
		if !more {
			break
		}
		if inner = rest; len(inner) == 0 {
			return nil, false // trailing comma
		}
	}
	return p.args, true
}

// upper returns s upper-cased as strings.ToUpper would, in p.up for ASCII.
func (p *parser) upper(s []byte) []byte {
	p.up = p.up[:0]
	for _, c := range s {
		if c >= utf8.RuneSelf {
			// Non-ASCII heads are rare; ToUpper also maps e.g. 'ı' to 'I'.
			return []byte(strings.ToUpper(string(s)))
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		p.up = append(p.up, c)
	}
	return p.up
}

// pinRef reads a net reference with optional leading "!" inversions.
func (p *parser) pinRef(s []byte) (netlist.Ref, error) {
	inv := false
	for len(s) > 0 && s[0] == '!' {
		inv = !inv
		s = bytes.TrimSpace(s[1:])
	}
	if len(s) == 0 {
		return netlist.P(""), errors.New("empty net reference")
	}
	return p.b.RefBytes(s, inv), nil
}

func parseClock(ann []byte) (netlist.Clock, error) {
	rest, ok := bytes.CutPrefix(ann, []byte("clk"))
	if !ok {
		return netlist.Clock{}, fmt.Errorf("bad clock annotation %q", ann)
	}
	dom, phase, hasPhase := bytes.Cut(rest, []byte{':'})
	d, err := strconv.Atoi(string(dom))
	if err != nil {
		return netlist.Clock{}, fmt.Errorf("bad clock domain in %q", ann)
	}
	ph := 0
	if hasPhase {
		if ph, err = strconv.Atoi(string(phase)); err != nil {
			return netlist.Clock{}, fmt.Errorf("bad clock phase in %q", ann)
		}
	}
	return netlist.Clock{Domain: int32(d), Phase: int8(ph)}, nil
}

// Write renders the circuit in the extended .bench format, appended into
// one recycled buffer and written at once. Nodes are written in a stable
// order: inputs, outputs, then definitions in id order, then SET, RESET
// and PORT lines sorted as strings.
func Write(w io.Writer, c *netlist.Circuit) error {
	buf := textBufs.Get().(*[]byte)
	text := appendText((*buf)[:0], c)
	_, err := w.Write(text)
	putText(buf, text)
	return err
}

// appendText appends the circuit's .bench form to dst.
func appendText(dst []byte, c *netlist.Circuit) []byte {
	dst = fmt.Appendf(dst, "# %s: %s\n", c.Name, c.Stats())
	for _, id := range c.PIs {
		dst = append(dst, "INPUT("...)
		dst = append(dst, c.NameOf(id)...)
		dst = append(dst, ")\n"...)
	}
	for _, po := range c.POs {
		dst = append(dst, "OUTPUT("...)
		dst = appendPin(dst, c, po.Pin)
		dst = append(dst, ")\n"...)
	}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		switch n.Kind {
		case netlist.KindGate:
			dst = append(dst, n.Name...)
			dst = append(dst, " = "...)
			dst = append(dst, n.Op.String()...)
			dst = append(dst, '(')
			for i, p := range c.Fanin(netlist.NodeID(id)) {
				if i > 0 {
					dst = append(dst, ", "...)
				}
				dst = appendPin(dst, c, p)
			}
			dst = append(dst, ")\n"...)
		case netlist.KindDFF, netlist.KindLatch:
			kw := " = DFF("
			if n.Kind == netlist.KindLatch {
				kw = " = LATCH("
			}
			dst = append(dst, n.Name...)
			dst = append(dst, kw...)
			dst = appendPin(dst, c, n.Seq.D)
			dst = append(dst, ") @clk"...)
			dst = strconv.AppendInt(dst, int64(n.Seq.Clock.Domain), 10)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(n.Seq.Clock.Phase), 10)
			dst = append(dst, '\n')
		}
	}

	// Set/reset and ports after all definitions, one line each, sorted.
	var text []byte
	var ends []int
	for _, id := range c.Seqs {
		si := c.Nodes[id].Seq
		name := c.NameOf(id)
		if si.HasSet() {
			text = appendCall(text, "SET(", name, c, si.SetNet)
			ends = append(ends, len(text))
		}
		if si.HasReset() {
			text = appendCall(text, "RESET(", name, c, si.ResetNet)
			ends = append(ends, len(text))
		}
		for _, pt := range si.Ports {
			text = appendCall(text, "PORT(", name, c, pt.Enable, pt.Data)
			ends = append(ends, len(text))
		}
	}
	lines := make([][]byte, len(ends))
	for i, end := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		lines[i] = text[start:end]
	}
	slices.SortFunc(lines, bytes.Compare)
	for _, l := range lines {
		dst = append(dst, l...)
		dst = append(dst, '\n')
	}
	return dst
}

// appendCall appends "KW(name, pin, ...)" with open = "KW(".
func appendCall(dst []byte, open, name string, c *netlist.Circuit, pins ...netlist.Pin) []byte {
	dst = append(dst, open...)
	dst = append(dst, name...)
	for _, p := range pins {
		dst = append(dst, ", "...)
		dst = appendPin(dst, c, p)
	}
	return append(dst, ')')
}

func appendPin(dst []byte, c *netlist.Circuit, p netlist.Pin) []byte {
	if p.Inv {
		dst = append(dst, '!')
	}
	return append(dst, c.NameOf(p.Node)...)
}
