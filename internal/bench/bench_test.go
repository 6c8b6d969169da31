package bench

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/netlist"
)

const sample = `
# a small sample
INPUT(a)
INPUT(b)
OUTPUT(o)
g1 = AND(a, !b)
g2 = NOT(g1)
f1 = DFF(g2) @clk1:1
f2 = LATCH(g1)
o = OR(f1, f2)
SET(f1, a)
PORT(f2, b, g2)
c0 = CONST0()
`

func TestParseSample(t *testing.T) {
	c, err := Parse("sample", strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.PIs != 2 || st.Gates != 4 || st.DFFs != 1 || st.Latches != 1 || st.POs != 1 {
		t.Fatalf("stats = %v", st)
	}
	g1 := c.MustLookup("g1")
	fi := c.Fanin(g1)
	if len(fi) != 2 || fi[1].Inv != true || fi[0].Inv != false {
		t.Fatalf("g1 fanin = %v", fi)
	}
	f1 := c.Nodes[c.MustLookup("f1")].Seq
	if f1.Clock.Domain != 1 || f1.Clock.Phase != 1 {
		t.Fatalf("f1 clock = %+v", f1.Clock)
	}
	if !f1.HasSet() || f1.HasReset() {
		t.Fatal("f1 set/reset attrs")
	}
	f2 := c.Nodes[c.MustLookup("f2")].Seq
	if len(f2.Ports) != 1 {
		t.Fatal("f2 port missing")
	}
	if c.Nodes[c.MustLookup("c0")].Op != logic.OpConst0 {
		t.Fatal("const gate")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"FROB(x)",
		"g = AND(a",
		"g = WIBBLE(a, b)",
		"g = DFF(a, b)",
		"INPUT(a, b)",
		"g = AND(a, b) @zap",
		"g = AND(a, b) @clkX",
		"SET(a)",
		"g AND(a)",
		"g = AND(a,,b)",
	}
	for _, src := range cases {
		if _, err := Parse("bad", strings.NewReader("INPUT(a)\nINPUT(b)\n"+src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestParseBlankTextAllocates: blank and comment lines cost nothing past
// reading the text, so 8 MiB of newlines or of short comments allocates
// what reading it into a buffer does plus the capped size hint, not a
// node per line.
func TestParseBlankTextAllocates(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const size = 8 << 20
	for _, line := range []string{"\n", "#\n", " # x\r\n"} {
		text := strings.Repeat(line, size/len(line))
		read := allocated(func() {
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		var err error
		parse := allocated(func() { _, err = Parse("blank", strings.NewReader(text)) })
		if err != nil {
			t.Fatal(err)
		}
		if parse > read+4<<20 {
			t.Errorf("%d lines of %q: Parse allocated %d bytes, reading the text %d",
				size/len(line), line, parse, read)
		}
	}
}

// TestParseReadError: a read error, such as a body cut at its size limit,
// fails Parse with that error, not with a syntax error on the cut line.
func TestParseReadError(t *testing.T) {
	cut := errors.New("body too large")
	r := io.MultiReader(strings.NewReader("INPUT(a)\nINPUT(b)\ng = AND(a, b"), iotest.ErrReader(cut))
	c, err := Parse("cut", r)
	if c != nil || !errors.Is(err, cut) || err.Error() != "bench: body too large" {
		t.Fatalf("Parse = %v, %v; want the read error", c, err)
	}
}

func TestCommentsAndBlanks(t *testing.T) {
	src := "INPUT(a)\n\n# full comment\nOUTPUT(g) # trailing\ng = BUF(a)\n"
	c, err := Parse("cmt", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Gates != 1 {
		t.Fatal("comment parsing broke definitions")
	}
}

func TestDoubleInversion(t *testing.T) {
	c, err := Parse("dd", strings.NewReader("INPUT(a)\ng = BUF(!!a)\nOUTPUT(g)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Fanin(c.MustLookup("g"))[0].Inv {
		t.Fatal("!! must cancel")
	}
}

// roundTrip writes and re-parses a circuit, then compares structure.
func roundTrip(t *testing.T, c *netlist.Circuit) *netlist.Circuit {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(c.Name, strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, sb.String())
	}
	return c2
}

func TestRoundTripSample(t *testing.T) {
	c, err := Parse("sample", strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	c2 := roundTrip(t, c)
	if c.Stats() != c2.Stats() {
		t.Fatalf("stats changed: %v -> %v", c.Stats(), c2.Stats())
	}
	// Deep structural comparison by name.
	for id := range c.Nodes {
		n := &c.Nodes[id]
		id2, ok := c2.Lookup(n.Name)
		if !ok {
			t.Fatalf("node %s lost", n.Name)
		}
		n2 := &c2.Nodes[id2]
		if n.Kind != n2.Kind || n.Op != n2.Op {
			t.Fatalf("node %s changed kind/op", n.Name)
		}
		fi, fi2 := c.Fanin(netlist.NodeID(id)), c2.Fanin(id2)
		if len(fi) != len(fi2) {
			t.Fatalf("node %s fanin arity changed", n.Name)
		}
		for i := range fi {
			if c.NameOf(fi[i].Node) != c2.NameOf(fi2[i].Node) || fi[i].Inv != fi2[i].Inv {
				t.Fatalf("node %s fanin %d changed", n.Name, i)
			}
		}
		if n.Seq != nil {
			if c.NameOf(n.Seq.D.Node) != c2.NameOf(n2.Seq.D.Node) || n.Seq.D.Inv != n2.Seq.D.Inv {
				t.Fatalf("element %s D changed", n.Name)
			}
			if n.Seq.Clock != n2.Seq.Clock {
				t.Fatalf("element %s clock changed", n.Name)
			}
			if n.Seq.HasSet() != n2.Seq.HasSet() || n.Seq.HasReset() != n2.Seq.HasReset() {
				t.Fatalf("element %s set/reset changed", n.Name)
			}
			if len(n.Seq.Ports) != len(n2.Seq.Ports) {
				t.Fatalf("element %s ports changed", n.Name)
			}
		}
	}
}

func TestRoundTripFigures(t *testing.T) {
	for _, c := range []*netlist.Circuit{circuits.Figure1(), circuits.Figure2()} {
		c2 := roundTrip(t, c)
		if c.Stats() != c2.Stats() {
			t.Fatalf("%s: stats changed", c.Name)
		}
		if len(c.Stems()) != len(c2.Stems()) {
			t.Fatalf("%s: stems changed", c.Name)
		}
	}
}
