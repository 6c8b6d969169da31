// Quickstart: build the paper's Figure 1 circuit, run sequential learning,
// and print what the technique extracts — the Table 1 stem rows condensed
// into relations, the tied gates G3/G12 (combinational) and G15
// (sequential), and the G2 ≡ G4 equivalence.
package main

import (
	"fmt"
	"os"

	"repro/seqlearn"
)

func main() {
	c := seqlearn.Figure1()
	fmt.Printf("circuit %s: %s\n\n", c.Name, c.Stats())

	res := seqlearn.Learn(c, seqlearn.LearnOptions{})

	ffff, gateFF, _ := res.DB.Counts(true)
	fmt.Printf("sequentially learned relations: %d FF-FF, %d gate-FF\n", ffff, gateFF)
	fmt.Println("\ninvalid-state relations (the paper's Table 2):")
	for _, rel := range res.DB.Relations() {
		if rel.Dt != 0 {
			continue
		}
		if !c.IsSeq(rel.A.Node) || !c.IsSeq(rel.B.Node) {
			continue
		}
		fmt.Println("  ", res.DB.FormatRelation(rel))
	}

	fmt.Println("\ntied gates:")
	for _, tie := range res.CombTies {
		fmt.Printf("   %s = %s (combinational)\n", c.NameOf(tie.Node), tie.Val)
	}
	for _, tie := range res.SeqTies {
		fmt.Printf("   %s = %s (sequential, valid from frame %d)\n",
			c.NameOf(tie.Node), tie.Val, tie.Frame)
	}

	fmt.Println("\nequivalence classes (ties folded in):")
	for _, cls := range res.EquivClasses {
		fmt.Printf("   %s ≡", c.NameOf(cls.Rep))
		for _, m := range cls.Members {
			fmt.Printf(" %s", c.NameOf(m))
		}
		fmt.Println()
	}

	// The circuit round-trips through the .bench format.
	fmt.Println("\nnetlist:")
	if err := seqlearn.WriteBench(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
