// Command seqlearn runs sequential learning on a circuit and reports the
// learned relations, tied gates and statistics (one row of the paper's
// Table 3).
//
// Usage:
//
//	seqlearn -circuit s5378            # synthetic suite stand-in
//	seqlearn -bench design.bench       # extended ISCAS-89 netlist
//	seqlearn -circuit figure1 -dump    # dump every learned relation
//	seqlearn -circuit s953 -trace      # also print the run's span tree
//	seqlearn -circuit s953 -remote http://127.0.0.1:8344   # via a seqlearnd daemon
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/seqlearn"
)

func main() {
	var (
		circuit    = flag.String("circuit", "", "suite circuit name (e.g. s5378), figure1 or figure2")
		benchFile  = flag.String("bench", "", "path to a .bench netlist")
		dump       = flag.Bool("dump", false, "dump all learned relations")
		singleOnly = flag.Bool("single-only", false, "single-node learning only")
		skipComb   = flag.Bool("skip-comb", false, "skip the combinational learning pass")
		maxFrames  = flag.Int("max-frames", 0, "simulation frame cap (default 50)")
		noEarly    = flag.Bool("no-early-stop", false, "disable the repeated-state stopping rule (ablation)")
		workers    = flag.Int("workers", 0, "learning workers (0 = one per core, 1 = serial; results identical)")
		remote     = flag.String("remote", "", "run against a seqlearnd daemon at this base URL instead of in-process")
		trace      = flag.Bool("trace", false, "print the run's span tree (parse, learn with its phases and freeze) after the results")
		version    = flag.Bool("version", false, "print build identity and exit")
	)
	flag.IntVar(workers, "j", 0, "alias for -workers")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("seqlearn"))
		return
	}

	// A nil trace makes every span call a no-op.
	var tr *obs.Trace
	if *trace {
		if *remote != "" {
			fmt.Fprintln(os.Stderr, "seqlearn: -trace is in-process only")
			os.Exit(1)
		}
		tr = obs.NewTrace("seqlearn", "seqlearn")
	}
	root := tr.Root()

	sp := root.Start("parse")
	c, err := load(*circuit, *benchFile)
	sp.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqlearn:", err)
		os.Exit(1)
	}

	params := seqlearn.ServiceLearnParams{
		MaxFrames:   *maxFrames,
		SingleOnly:  *singleOnly,
		SkipComb:    *skipComb,
		NoEarlyStop: *noEarly,
		Workers:     *workers,
	}
	if *remote != "" {
		if err := runRemote(*remote, c, params); err != nil {
			fmt.Fprintln(os.Stderr, "seqlearn:", err)
			os.Exit(1)
		}
		return
	}

	// The in-process run goes through the same params struct as the remote
	// one, so a local ablation and its remote replay configure identically.
	opts := params.Options()
	sp = root.Start("learn")
	opts.Span = sp
	res := learn.Learn(c, opts)
	sp.End()
	root.End()
	ffff, gateFF, _ := res.DB.Counts(true)
	fmt.Printf("%s: %s\n", c.Name, c.Stats())
	fmt.Printf("sequential relations: FF-FF=%d Gate-FF=%d\n", ffff, gateFF)
	fmt.Printf("tied gates: %d combinational, %d sequential\n", len(res.CombTies), len(res.SeqTies))
	fmt.Printf("equivalence classes: %d\n", len(res.EquivClasses))
	fmt.Printf("stats: stems=%d targets=%d sims=%d conflicts=%d cpu=%v\n",
		res.Stats.Stems, res.Stats.Targets, res.Stats.Sims, res.Stats.Conflicts, res.Stats.Duration)
	if *dump {
		if err := res.DB.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "seqlearn:", err)
			os.Exit(1)
		}
		for _, tie := range append(append([]learn.Tie{}, res.CombTies...), res.SeqTies...) {
			fmt.Printf("tie %s = %s (frame %d)\n", c.NameOf(tie.Node), tie.Val, tie.Frame)
		}
	}
	if tr != nil {
		tr.JSON().Root.WriteText(os.Stdout)
	}
}

// runRemote sends the circuit to a seqlearnd daemon and prints the served
// summary, including whether the daemon's snapshot cache already held it.
// Ctrl-C cancels the request, which tells the daemon to stop computing.
func runRemote(base string, c *netlist.Circuit, params seqlearn.ServiceLearnParams) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cl := seqlearn.NewClient(base)
	res, err := cl.Learn(ctx, c, params)
	if err != nil {
		return err
	}
	fmt.Printf("%s via %s: cache=%s fingerprint=%s\n", c.Name, base, res.Cache, res.Fingerprint[:12])
	fmt.Printf("sequential relations: FF-FF=%d Gate-FF=%d (total %d, cross-frame %d)\n",
		res.FFFF, res.GateFF, res.Relations, res.CrossFrame)
	fmt.Printf("tied gates: %d combinational, %d sequential\n", res.CombTies, res.SeqTies)
	fmt.Printf("served in %.1fms\n", res.ElapsedMS)
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
