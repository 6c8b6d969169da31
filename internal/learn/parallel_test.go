package learn

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// dumpResult renders everything observable about a learning result —
// serialized relation database, ties with values and frames, equivalence
// classes, rows and the deterministic statistics — so runs can be compared
// byte for byte.
func dumpResult(c *netlist.Circuit, res *Result) string {
	var sb strings.Builder
	if err := res.DB.Serialize(&sb); err != nil {
		panic(err)
	}
	dumpTies := func(label string, ties []Tie) {
		fmt.Fprintf(&sb, "%s:\n", label)
		for _, tie := range ties {
			fmt.Fprintf(&sb, "  %s=%s @%d\n", c.NameOf(tie.Node), tie.Val, tie.Frame)
		}
	}
	dumpTies("comb ties", res.CombTies)
	dumpTies("seq ties", res.SeqTies)
	fmt.Fprintf(&sb, "equiv classes: %d\n", len(res.EquivClasses))
	for _, cls := range res.EquivClasses {
		fmt.Fprintf(&sb, "  rep=%s members=%d\n", c.NameOf(cls.Rep), len(cls.Members))
	}
	for _, row := range res.Rows {
		fmt.Fprintf(&sb, "row class=%d stem=%s val=%s frames=%d early=%v\n",
			row.Class, c.NameOf(row.Stem), row.Val, len(row.Frames), row.StoppedEarly)
	}
	s := res.Stats
	// fixties=0 keeps the text the pinned digests were recorded from.
	fmt.Fprintf(&sb, "stats: stems=%d targets=%d sims=%d frames=%d conflicts=%d skipped=%d fixties=0\n",
		s.Stems, s.Targets, s.Sims, s.Frames, s.Conflicts, s.PairsSkipped)
	return sb.String()
}

// TestParallelDeterminism is the core contract of the sharded pipeline:
// for any worker count the learned database dump, ties, equivalences,
// rows and statistics are byte-identical to the serial run.
func TestParallelDeterminism(t *testing.T) {
	counts := []int{2, 3, runtime.GOMAXPROCS(0)}
	for _, name := range []string{"s953", "s1423"} {
		c := gen.MustBuild(name)
		base := dumpResult(c, Learn(c, Options{Parallelism: 1, KeepRows: true}))
		for _, p := range counts {
			got := dumpResult(c, Learn(c, Options{Parallelism: p, KeepRows: true}))
			if got != base {
				t.Fatalf("%s: Parallelism=%d dump differs from serial run (%d vs %d bytes)",
					name, p, len(got), len(base))
			}
		}
	}
}

// TestParallelDeterminismMultiClock covers the row-cache path: in a
// multi-domain circuit purely combinational rows are cached across class
// passes, and the cache handling must stay race-free and deterministic.
func TestParallelDeterminismMultiClock(t *testing.T) {
	c := multiClockCircuit(5)
	base := dumpResult(c, Learn(c, Options{Parallelism: 1, MaxFrames: 10}))
	for _, p := range []int{2, 4} {
		got := dumpResult(c, Learn(c, Options{Parallelism: p, MaxFrames: 10}))
		if got != base {
			t.Fatalf("multi-clock Parallelism=%d dump differs from serial run", p)
		}
	}
}

// TestParallelDeterminismAblations sweeps option combinations through the
// parallel path so every branch (no ties, single-node only) keeps the
// determinism contract.
func TestParallelDeterminismAblations(t *testing.T) {
	opts := []Options{
		{SingleNodeOnly: true, SkipComb: true},
		{DisableTies: true, SkipComb: true},
	}
	c := gen.MustBuild("s953")
	for i, opt := range opts {
		serial := opt
		serial.Parallelism = 1
		parallel := opt
		parallel.Parallelism = 4
		if dumpResult(c, Learn(c, serial)) != dumpResult(c, Learn(c, parallel)) {
			t.Fatalf("option set %d: parallel dump differs from serial run", i)
		}
	}
}
