// Service walk-through: the "learn once, reuse everywhere" economics over
// HTTP. An in-process seqlearnd daemon is mounted on a loopback listener
// (production runs `seqlearnd` standalone; see README "Running the
// service"), then a client posts the same netlist repeatedly: the first
// request pays for the learning run, every later one — including the ATPG,
// which resolves its implication snapshot through the same
// content-addressed cache — is served from memory.
package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/internal/server"
	"repro/seqlearn"
)

func main() {
	ctx := context.Background()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
	go http.Serve(ln, server.New(server.Config{}))
	base := "http://" + ln.Addr().String()
	fmt.Printf("daemon on %s\n\n", base)

	cl := seqlearn.NewClient(base)
	c := seqlearn.Benchmark("s953")

	for i := 1; i <= 2; i++ {
		res, err := cl.Learn(ctx, c, seqlearn.ServiceLearnParams{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "service:", err)
			os.Exit(1)
		}
		fmt.Printf("learn #%d: cache=%-4s relations=%d (FF-FF %d, Gate-FF %d) ties=%d+%d in %.1fms\n",
			i, res.Cache, res.Relations, res.FFFF, res.GateFF,
			res.CombTies, res.SeqTies, res.ElapsedMS)
	}

	// The ATPG result itself is content-addressed too: the first request
	// runs PODEM, the second is served whole from the test-set cache.
	for i := 1; i <= 2; i++ {
		at, err := cl.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{
			Mode: "forbidden", Backtracks: 30, MaxFaults: 200,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "service:", err)
			os.Exit(1)
		}
		fmt.Printf("atpg #%d: cache=%-4s tests-cache=%-4s faults=%d detected=%d untestable=%d aborted=%d tests=%d in %.1fms\n",
			i, at.Cache, at.TestsCache, at.Total, at.Detected, at.Untestable, at.Aborted, at.Tests, at.ElapsedMS)
	}

	stats, err := cl.Stats(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
	fmt.Printf("\ndaemon stats: learns=%d hits=%d misses=%d entries=%d atpg-runs=%d atpg-hits=%d\n",
		stats.Cache.Learns, stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Entries,
		stats.Cache.ATPGRuns, stats.Cache.ATPGHits)

	// debug=trace echoes the request's span tree: where a cold request
	// spends its time, phase by phase. A fresh daemon so nothing is cached;
	// fault_sim and podem are aggregates across parallel workers, so their
	// totals may exceed the request's wall clock.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
	go http.Serve(ln2, server.New(server.Config{}))
	cold := seqlearn.NewClient("http://" + ln2.Addr().String())
	traced, err := cold.GenerateTests(ctx, c, seqlearn.ServiceATPGParams{
		Mode: "forbidden", Backtracks: 30, MaxFaults: 200,
		Learn: seqlearn.ServiceLearnParams{Trace: true},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "service:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncold ATPG span tree (request %s):\n", traced.Trace.ID)
	traced.Trace.Root.WriteText(os.Stdout)
}
