// Command tables regenerates the paper's tables on the synthetic benchmark
// suite. Each suite circuit is a stand-in with its paper circuit's
// flip-flop and gate counts (package gen); Tables 3 and 4 print the
// paper's values in parentheses beside the measured ones.
//
// Usage:
//
//	tables -table 1          # Figure 1 stem rows (paper Table 1)
//	tables -table 2          # Figure 1 relations by stage (paper Table 2)
//	tables -table 3          # learning over the suite (paper Table 3)
//	tables -table 4          # untestable faults: ties vs FIRES (paper Table 4)
//	tables -table 5          # ATPG experiment grid (paper Table 5)
//	tables -table fig2       # Figure 2 walk-through (paper Section 3.1/4)
//	tables -table all
//
// The -quick flag bounds circuit sizes and fault counts so the whole run
// finishes in minutes; drop it for the full sweep.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
	"repro/internal/obs"
)

func main() {
	var (
		table     = flag.String("table", "all", "which table: 1, 2, 3, 4, 5, fig2 or all")
		quick     = flag.Bool("quick", false, "bound sizes and fault counts for a fast run")
		maxFaults = flag.Int("max-faults", 0, "table 5: faults per circuit (0 = all)")
		workers   = flag.Int("workers", 0, "table 5: ATPG driver workers (0 = one per core, 1 = serial; cells identical)")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("tables"))
		return
	}

	maxGates3, maxGates4, maxGates5 := 0, 0, 0
	t5Faults := *maxFaults
	if *quick {
		maxGates3 = 10000
		maxGates4 = 3000
		maxGates5 = 3500
		if t5Faults == 0 {
			t5Faults = 300
		}
	}

	run := func(name string, f func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "tables: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("1", func() error { return harness.Table1(os.Stdout) })
	run("2", func() error { return harness.Table2(os.Stdout) })
	run("fig2", func() error { return harness.Figure2Demo(os.Stdout) })
	run("3", func() error {
		_, err := harness.Table3(os.Stdout, maxGates3)
		return err
	})
	run("4", func() error {
		_, err := harness.Table4(os.Stdout, maxGates4)
		return err
	})
	run("5", func() error {
		_, err := harness.Table5(os.Stdout, harness.Table5Options{
			MaxFaults: t5Faults,
			MaxGates:  maxGates5,
			Workers:   *workers,
		})
		return err
	})
}
