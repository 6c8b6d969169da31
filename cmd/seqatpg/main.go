// Command seqatpg runs the sequential test generator over a circuit's
// collapsed fault list, with or without learned data (one cell group of
// the paper's Table 5).
//
// Usage:
//
//	seqatpg -circuit s1423 -mode forbidden -backtracks 30
//	seqatpg -bench design.bench -mode known -max-faults 500
//	seqatpg -circuit s5378 -workers 8   # sharded driver; counts identical to -workers 1
//	seqatpg -circuit s1423 -compact     # reverse-order fault-sim test compaction
//	seqatpg -circuit s1423 -trace       # also print the run's span tree
//	seqatpg -circuit s1423 -remote http://127.0.0.1:8344   # via a seqlearnd daemon
//	seqatpg -circuit s5378 -remote http://a:8344,http://b:8344   # scatter/gather across a fleet
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/seqlearn"
)

func main() {
	var (
		circuit   = flag.String("circuit", "", "suite circuit name, figure1 or figure2")
		benchFile = flag.String("bench", "", "path to a .bench netlist")
		mode      = flag.String("mode", "forbidden", "learning use: nolearn, forbidden, known")
		limit     = flag.Int("backtracks", 30, "backtrack limit per window")
		maxFaults = flag.Int("max-faults", 0, "truncate the fault list (0 = all)")
		maxWin    = flag.Int("max-window", 8, "largest time-frame window")
		workers   = flag.Int("workers", 0, "parallel workers for learning, fault simulation and the PODEM driver (0 = one per core, 1 = serial; results identical)")
		compact   = flag.Bool("compact", false, "drop redundant tests by reverse-order fault simulation after generation")
		remote    = flag.String("remote", "", "run against seqlearnd at this base URL instead of in-process; a comma-separated list scatters one shard per daemon and merges bit-identically")
		reuse     = flag.String("reuse", "", "with -remote: seed from a cached test set (\"auto\" or a tests fingerprint) and run PODEM only on the residue")
		trace     = flag.Bool("trace", false, "print the run's span tree (parse, learn, collapse, atpg with its podem and fault_sim aggregates) after the results")
		version   = flag.Bool("version", false, "print build identity and exit")
	)
	flag.IntVar(workers, "j", 0, "alias for -workers")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("seqatpg"))
		return
	}

	// The span tree is the one perfbench's atpg-campaign reads; a nil
	// trace makes every span call a no-op.
	var tr *obs.Trace
	if *trace {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "seqatpg: -trace is in-process only")
			os.Exit(1)
		}
		tr = obs.NewTrace("seqatpg", "seqatpg")
	}
	root := tr.Root()

	sp := root.Start("parse")
	c, err := load(*circuit, *benchFile)
	sp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqatpg:", err)
		os.Exit(1)
	}
	if *remote != "" {
		bases := strings.Split(*remote, ",")
		var err error
		if len(bases) > 1 {
			err = runFleet(bases, c, *mode, *reuse, *limit, *maxFaults, *maxWin, *workers, *compact)
		} else {
			err = runRemote(*remote, c, *mode, *reuse, *limit, *maxFaults, *maxWin, *workers, *compact)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "seqatpg:", err)
			os.Exit(1)
		}
		return
	}
	if *reuse != "" {
		fmt.Fprintln(os.Stderr, "seqatpg: -reuse needs -remote (the test-set cache lives in the daemon)")
		os.Exit(1)
	}
	var m atpg.Mode
	switch *mode {
	case "nolearn":
		m = atpg.ModeNoLearning
	case "forbidden":
		m = atpg.ModeForbidden
	case "known":
		m = atpg.ModeKnown
	default:
		fmt.Fprintf(os.Stderr, "seqatpg: unknown mode %q\n", *mode)
		os.Exit(1)
	}

	sp = root.Start("learn")
	lr := learn.Learn(c, learn.Options{Parallelism: *workers, Span: sp})
	sp.End()
	// The no-learning baseline knows only what combinational learning can
	// know (the convention of the Table 5 harness and the service); the
	// learning modes get all ties.
	ties := append([]learn.Tie{}, lr.CombTies...)
	if m != atpg.ModeNoLearning {
		ties = append(ties, lr.SeqTies...)
	}

	windows, err := atpg.WindowLadder(*maxWin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqatpg: %v\n", err)
		os.Exit(1)
	}
	sp = root.Start("collapse")
	faults, _ := fault.Collapse(c)
	sp.End()
	sp = root.Start("atpg")
	res := atpg.Run(c, atpg.RunOptions{
		Faults:       faults,
		MaxFaults:    *maxFaults,
		Span:         sp,
		Parallelism:  *workers,
		CompactTests: *compact,
		ATPG: atpg.Options{
			BacktrackLimit: *limit,
			Windows:        windows,
			Mode:           m,
			DB:             lr.DB,
			Ties:           ties,
			FillSeed:       0x7e57,
		},
	})
	sp.End()
	root.End()
	fmt.Printf("%s: %s\n", c.Name, c.Stats())
	fmt.Printf("mode=%s backtrack-limit=%d\n", m, *limit)
	fmt.Printf("faults=%d detected=%d untestable=%d aborted=%d\n",
		res.Total, res.Detected, res.Untestable, res.Aborted)
	fmt.Printf("coverage=%.2f%% test-coverage=%.2f%% tests=%d backtracks=%d cpu=%v\n",
		100*res.Coverage(), 100*res.TestCoverage(), len(res.Tests), res.Backtracks, res.Duration)
	if *compact {
		fmt.Printf("compaction dropped %d redundant tests\n", res.TestsCompacted)
	}
	if tr != nil {
		tr.JSON().Root.WriteText(os.Stdout)
	}
	if res.VerifyFailures > 0 {
		fmt.Fprintf(os.Stderr, "seqatpg: %d tests failed independent verification\n", res.VerifyFailures)
		os.Exit(1)
	}
}

// runRemote sends the circuit to a seqlearnd daemon, which resolves the
// learned snapshot and the test-set artifact through its caches and runs
// the same ATPG driver; counts are bit-identical to the in-process path
// with the same options. Ctrl-C cancels the request, which tells the
// daemon to stop at the next fault boundary.
func runRemote(base string, c *netlist.Circuit, mode, reuse string, limit, maxFaults, maxWin, workers int, compact bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := seqlearn.NewClient(base)
	res, err := cl.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{
		Learn:      seqlearn.ServiceLearnParams{Workers: workers},
		Mode:       mode,
		Backtracks: limit,
		MaxFaults:  maxFaults,
		MaxWindow:  maxWin,
		Workers:    workers,
		Compact:    compact,
		Reuse:      reuse,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s via %s: cache=%s tests-cache=%s mode=%s backtrack-limit=%d\n",
		c.Name, base, res.Cache, res.TestsCache, mode, limit)
	fmt.Printf("faults=%d detected=%d untestable=%d aborted=%d\n",
		res.Total, res.Detected, res.Untestable, res.Aborted)
	fmt.Printf("coverage=%.2f%% test-coverage=%.2f%% tests=%d backtracks=%d served in %.1fms\n",
		100*res.Coverage, 100*res.TestCoverage, res.Tests, res.Backtracks, res.ElapsedMS)
	if res.ReuseFingerprint != "" {
		fmt.Printf("reused %d tests from %s (%d faults detected by replay, %d left for PODEM)\n",
			res.ReusedTests, res.ReuseFingerprint[:12], res.SeedDetected, res.PodemFaults)
		if res.ReuseDiff != "" {
			fmt.Printf("diff vs seed circuit: %s\n", res.ReuseDiff)
		}
	}
	if compact {
		fmt.Printf("compaction dropped %d redundant tests\n", res.TestsCompacted)
	}
	if res.VerifyFailures > 0 {
		return fmt.Errorf("%d tests failed independent verification", res.VerifyFailures)
	}
	return nil
}

// runFleet scatters shard i/n of the fault list to daemon i and merges
// the shards locally: counts, tests and backtracks are bit-identical to
// a single daemon (or in-process run) with the same options. Daemons
// sharing a -cache-dir pay for one learning run fleet-wide.
func runFleet(bases []string, c *netlist.Circuit, mode, reuse string, limit, maxFaults, maxWin, workers int, compact bool) error {
	if reuse != "" {
		return fmt.Errorf("-reuse needs a single -remote daemon (shards cannot seed from a cached test set)")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fleet := seqlearn.NewFleet(bases...)
	res, err := fleet.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{
		Learn:      seqlearn.ServiceLearnParams{Workers: workers},
		Mode:       mode,
		Backtracks: limit,
		MaxFaults:  maxFaults,
		MaxWindow:  maxWin,
		Workers:    workers,
		Compact:    compact,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s via %d daemons: mode=%s backtrack-limit=%d\n", c.Name, len(bases), mode, limit)
	fmt.Printf("faults=%d detected=%d untestable=%d aborted=%d\n",
		res.Total, res.Detected, res.Untestable, res.Aborted)
	fmt.Printf("coverage=%.2f%% test-coverage=%.2f%% tests=%d backtracks=%d\n",
		100*res.Coverage(), 100*res.TestCoverage(), len(res.Tests), res.Backtracks)
	if compact {
		fmt.Printf("compaction dropped %d redundant tests\n", res.TestsCompacted)
	}
	if res.VerifyFailures > 0 {
		return fmt.Errorf("%d tests failed independent verification", res.VerifyFailures)
	}
	return nil
}

func load(circuit, benchFile string) (*netlist.Circuit, error) {
	switch {
	case benchFile != "":
		f, err := os.Open(benchFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bench.Parse(benchFile, f)
	case circuit == "figure1":
		return circuits.Figure1(), nil
	case circuit == "figure2":
		return circuits.Figure2(), nil
	case circuit != "":
		if _, ok := gen.Lookup(circuit); !ok {
			return nil, fmt.Errorf("unknown suite circuit %q", circuit)
		}
		return gen.MustBuild(circuit), nil
	}
	return nil, fmt.Errorf("need -circuit or -bench")
}
