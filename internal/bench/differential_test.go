package bench

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// referenceSeeds exercise every branch the byte tokenizer replaced: CRLF
// line ends, the Unicode spaces strings.TrimSpace strips (U+00A0, U+0085),
// lower-case and non-ASCII heads strings.ToUpper folds, "!!", clock
// annotations, SET/RESET/PORT lines, mid-line '#' and empty arguments.
var referenceSeeds = []string{
	sample,
	"INPUT(a)\r\nOUTPUT(y)\r\ny = NOT(a)\r\n",
	"INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = AND(a, b)\r",
	"\u00a0INPUT(a)\u00a0\nOUTPUT(y)\u0085\ny =\u00a0nand(a,\u0085a)\n",
	"INPUT(a)\nOUTPUT(y)\ny = nand(a, a)\nz = xOr(a, y)\n",
	"input(a)\noutput(y)\ny = buf(!!a)\n",
	"ınput(a)\nOUTPUT(y)\ny = NOT(a)\nq = dff(y)\nſet(q, a)\n",
	"INPUT(a)\nOUTPUT(!!y)\ny = BUF(! ! a)\n",
	"INPUT(a)\nq = DFF(a) @clk2:1\nr = LATCH(!q) @clk0\ns = DFF(q) @ clk3 : 1\n",
	"INPUT(a)\nq = DFF(a) @clk+2:-1\nr = DFF(a) @clk99999999999:300\n",
	"INPUT(a)\nq = DFF(a) @clk\n",
	"INPUT(a)\nq = DFF(a) @clk1:2:3\n",
	"INPUT(a)\nq = DFF(a) @CLK1\n",
	"INPUT(a)\nINPUT(b)\nq = DFF(a)\nl = LATCH(b) @clk1:1\nSET(q, b)\nRESET(q, !a)\nPORT(l, a, !b)\nreset(l, a)\nport(l, b, a)\n",
	"INPUT(a)\nSET(q, a)\nq = DFF(a)\n",
	"INPUT(a)\nq = DFF(a)\nSET(q)\nRESET(q, a, a)\nPORT(q, a)\n",
	"INPUT(a) # trailing\ny = AND(a, # gone\n",
	"INPUT(a)\ny = AND(a#b)\n",
	"INPUT(a)\ny = AND(a, , a)\n",
	"INPUT(a)\ny = AND(a,)\n",
	"INPUT(a)\ny = AND(,a)\n",
	"INPUT()\n",
	"INPUT(a,,b)\n",
	"OUTPUT(!)\n",
	"y = AND()\nINPUT(a)\n",
	"c = CONST1()\nd = const0( )\nOUTPUT(c)\n",
	"INPUT(a)\n = NOT(a)\nOUTPUT()\n",
	"INPUT(a)\ny=AND(a,a)\nz  =  OR ( a , y )\nw = OR (a)\n",
	"INPUT(a)\ny = AND(a, b)\n",
	"INPUT(a)\nINPUT(a)\n",
	"INPUT(a)\ny = NOT(a, a)\nz = WIBBLE(a)\n",
	"INPUT(a)\ny = AND(a@b)\n",
	"INPUT(a)\nx = \ny\n",
	"INPUT(a)\ny = NOT(y)\n",
	"INPUT(a\xff)\ny = NOT(a\xff)\nOUTPUT(\xff)\n",
	"\t INPUT\t(a)\n",
	"INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\ny = OR(a, a)\n",
	"INPUT(a)\nINPUT(b)\ny = AND(a, !b)\nz = OR(!y, b, a)\nw = AND(a,b)\nv = AND(a,  b)\nu = AND( a, b )\n",
	"INPUT(a)\ny = AND(a, )\n",
	"INPUT(a)\ny = AND(a, !)\n",
	"INPUT(a)\ny = AND(a!b)\n",
	"INPUT(a)\ny = DFF(a)\nz = dff(y)\nx = CONST0()\nw = NOT(a) \n",
	"INPUT(a)\ny = AND(a, z)\nz = NOT(a)\ny2 = and(z)\n",
	"INPUT(a)\ny = AND(a, a)) \ny = AND((a)\n",
}

// sameCircuit reports the first difference between two parsed circuits:
// names, ids, kinds, ops, pins with their inversions, POs, the sequential
// elements' D, clock, set, reset and ports, and name lookups.
func sameCircuit(a, b *netlist.Circuit) error {
	if a.Name != b.Name || len(a.Nodes) != len(b.Nodes) || len(a.POs) != len(b.POs) {
		return fmt.Errorf("shape: %q %d nodes %d POs vs %q %d nodes %d POs",
			a.Name, len(a.Nodes), len(a.POs), b.Name, len(b.Nodes), len(b.POs))
	}
	if fmt.Sprint(a.PIs) != fmt.Sprint(b.PIs) || fmt.Sprint(a.Seqs) != fmt.Sprint(b.Seqs) {
		return fmt.Errorf("PIs/Seqs differ: %v %v vs %v %v", a.PIs, a.Seqs, b.PIs, b.Seqs)
	}
	for i := range a.POs {
		if a.POs[i] != b.POs[i] {
			return fmt.Errorf("PO %d: %+v vs %+v", i, a.POs[i], b.POs[i])
		}
	}
	for id := range a.Nodes {
		na, nb := &a.Nodes[id], &b.Nodes[id]
		if na.Name != nb.Name || na.Kind != nb.Kind || na.Op != nb.Op {
			return fmt.Errorf("node %d: %q %v %v vs %q %v %v", id, na.Name, na.Kind, na.Op, nb.Name, nb.Kind, nb.Op)
		}
		fa, fb := a.Fanin(netlist.NodeID(id)), b.Fanin(netlist.NodeID(id))
		if fmt.Sprint(fa) != fmt.Sprint(fb) {
			return fmt.Errorf("node %q fanin: %v vs %v", na.Name, fa, fb)
		}
		if (na.Seq == nil) != (nb.Seq == nil) {
			return fmt.Errorf("node %q: sequential info on one side only", na.Name)
		}
		if na.Seq != nil {
			sa, sb := na.Seq, nb.Seq
			if sa.D != sb.D || sa.Clock != sb.Clock || sa.SetNet != sb.SetNet ||
				sa.ResetNet != sb.ResetNet || fmt.Sprint(sa.Ports) != fmt.Sprint(sb.Ports) {
				return fmt.Errorf("element %q: %+v vs %+v", na.Name, *sa, *sb)
			}
		}
		if got, ok := b.Lookup(na.Name); !ok || got != netlist.NodeID(id) {
			return fmt.Errorf("Lookup(%q) = %d, %t; want %d", na.Name, got, ok, id)
		}
	}
	return nil
}

// checkMatchesReference parses text with Parse and the old parser and
// fails unless both accept with equal circuits or both reject with the
// same error text.
func checkMatchesReference(t *testing.T, text string) {
	t.Helper()
	got, gerr := Parse("ref", strings.NewReader(text))
	want, werr := legacyParse("ref", strings.NewReader(text))
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("accept differs on %q:\ngot  %v\nwant %v", text, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("error differs on %q:\ngot  %v\nwant %v", text, gerr, werr)
		}
		return
	}
	if err := sameCircuit(got, want); err != nil {
		t.Fatalf("circuits differ on %q: %v", text, err)
	}
}

// FuzzParseMatchesReference runs Parse against the old Scanner/strings
// parser: both must accept or reject alike, with the same error text (line
// numbers included), and accepted inputs must build equal circuits.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range referenceSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		checkMatchesReference(t, text)
	})
}

// TestBuildErrorsMatchParent pins the builder's error text, as the
// builder before the byte parser produced it, for undefined, doubly
// defined and cyclic nets, set/reset/port misuse and arity. The
// differential fuzz runs both parsers on the current builder, so it
// cannot see a change here.
func TestBuildErrorsMatchParent(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"INPUT(a)\ny = AND(a, b)\nOUTPUT(y)\n",
			"gate y references undefined net \"b\""},
		{"q = DFF(z)\n",
			"element q references undefined net \"z\""},
		{"l = LATCH(!z) @clk1:1\n",
			"element l references undefined net \"z\""},
		{"INPUT(a)\nq = DFF(a)\nSET(q, z)\n",
			"set of q references undefined net \"z\""},
		{"INPUT(a)\nq = DFF(a)\nRESET(q, !z)\n",
			"reset of q references undefined net \"z\""},
		{"INPUT(a)\nl = LATCH(a)\nPORT(l, e, a)\nPORT(l, a, d)\nPORT(l, e, d)\n",
			"port enable of l references undefined net \"e\"; port data of l references undefined net \"d\"; port enable of l references undefined net \"e\"; port data of l references undefined net \"d\""},
		{"OUTPUT(z)\nOUTPUT(!w)\n",
			"output out_z references undefined net \"z\"; output out_w references undefined net \"w\""},
		{"INPUT(a)\nINPUT(a)\n",
			"node \"a\" defined twice"},
		{"INPUT(a)\ny = NOT(a)\ny = BUF(a)\n",
			"node \"y\" defined twice"},
		{"INPUT(a)\nq = DFF(a)\nq = LATCH(a)\nq = NOT(a)\n",
			"node \"q\" defined twice; node \"q\" defined twice"},
		{"INPUT(a)\nx = AND(a, y)\ny = NOT(x)\n",
			"combinational cycle through gate \"x\""},
		{"INPUT(a)\ny = NOT(y)\n",
			"combinational cycle through gate \"y\""},
		{"INPUT(a)\nx = AND(a, y)\ny = NOT(x)\nz = BUF(z)\nw = OR(a, z)\n",
			"combinational cycle through gate \"x\""},
		{"INPUT(a)\nq = DFF(g)\ng = AND(q, a)\nh = AND(g, h2)\nh2 = NOT(h)\n",
			"combinational cycle through gate \"h\""},
		{"INPUT(a)\ng = NOT(a)\nSET(g, a)\n",
			"SetNet: \"g\" is not a defined sequential element"},
		{"INPUT(a)\nRESET(a, a)\n",
			"ResetNet: \"a\" is not a defined sequential element"},
		{"INPUT(a)\nPORT(nope, a, a)\n",
			"AddPort: \"nope\" is not a defined sequential element"},
		{"INPUT(a)\nSET(q, a)\nq = DFF(a)\n",
			"SetNet: \"q\" is not a defined sequential element"},
		{"INPUT(a)\ny = NOT(a, a)\nc = CONST0(a)\nd = CONST1(a, a)\nb = BUF()\n",
			"gate \"y\": NOT requires exactly 1 input, got 2; gate \"c\": CONST0 takes no inputs; gate \"d\": CONST1 takes no inputs; gate \"b\": BUF requires exactly 1 input, got 0"},
		{"y = AND()\n",
			"gate \"y\": AND requires inputs"},
		{"INPUT(a)\ng = AND(a, u1, u2, u3, u4, u5)\nh = OR(u6, u7, u8, u9)\n",
			"gate g references undefined net \"u1\"; gate g references undefined net \"u2\"; gate g references undefined net \"u3\"; gate g references undefined net \"u4\"; gate g references undefined net \"u5\"; gate h references undefined net \"u6\"; gate h references undefined net \"u7\"; gate h references undefined net \"u8\"; (+1 more)"},
		{"INPUT(a)\ny = AND(a, b)\ny = OR(a, c)\nq = DFF(d)\nSET(q, e)\nSET(y, a)\nOUTPUT(f)\n",
			"node \"y\" defined twice; SetNet: \"y\" is not a defined sequential element; gate y references undefined net \"c\"; element q references undefined net \"d\"; set of q references undefined net \"e\"; output out_f references undefined net \"f\""},
	} {
		_, err := Parse("errs", strings.NewReader(tc.text))
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse(%q):\ngot  %v\nwant %s", tc.text, err, tc.want)
		}
	}
}

// TestParseLineLimit pins the 1 MiB line limit: a line of maxLine-1 bytes
// (before its newline) parses, a line of maxLine bytes fails with
// bufio.ErrTooLong, with or without a final newline and behind an
// earlier short line, exactly as the old parser's fixed buffer did.
func TestParseLineLimit(t *testing.T) {
	pad := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{pad(maxLine-1) + "\nINPUT(a)\n", true},
		{pad(maxLine - 1), true},
		{"INPUT(a)\n" + pad(maxLine-2) + "\r\n", true},
		{pad(maxLine) + "\nINPUT(a)\n", false},
		{pad(maxLine), false},
		{"INPUT(a)\n" + pad(maxLine-1) + "\r\n", false},
		{"INPUT(a)\n" + pad(3*maxLine) + "\n", false},
	} {
		_, err := Parse("long", strings.NewReader(tc.text))
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, bufio.ErrTooLong)) {
			t.Errorf("line of %d bytes: err = %v, want ok=%t", len(tc.text), err, tc.ok)
		}
		checkMatchesReference(t, tc.text)
	}
}

// TestWriteMatchesReference checks that Write emits exactly the old fmt
// writer's bytes on the paper figures, every suite circuit up to 10k
// gates and every seed circuit the reference parser accepts.
func TestWriteMatchesReference(t *testing.T) {
	circs := []*netlist.Circuit{circuits.Figure1(), circuits.Figure2()}
	for _, name := range gen.SuiteNames() {
		if e, _ := gen.Lookup(name); e.Gates <= 10000 {
			circs = append(circs, gen.Build(e))
		}
	}
	for _, s := range referenceSeeds {
		if c, err := legacyParse("seed", strings.NewReader(s)); err == nil {
			circs = append(circs, c)
		}
	}
	for _, c := range circs {
		var got, want bytes.Buffer
		if err := Write(&got, c); err != nil {
			t.Fatal(err)
		}
		if err := legacyWrite(&want, c); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write differs from the reference writer", c.Name)
		}
	}
}

// benchText is s5378's written form (about 74 KB), the size of a typical
// uploaded body.
func benchText(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, gen.MustBuild("s5378")); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkParse(b *testing.B) {
	text := benchText(b)
	for _, p := range []struct {
		name  string
		parse func(string, io.Reader) (*netlist.Circuit, error)
	}{{"bytes", Parse}, {"reference", legacyParse}} {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.parse("s5378", bytes.NewReader(text)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWrite(b *testing.B) {
	c := gen.MustBuild("s5378")
	for _, w := range []struct {
		name  string
		write func(io.Writer, *netlist.Circuit) error
	}{{"append", Write}, {"reference", legacyWrite}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := w.write(io.Discard, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
