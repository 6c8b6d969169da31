// Fleet walk-through: two seqlearnd instances over one shared cache
// directory. Daemon 0 generates tests and pays for the only learning run;
// daemon 1 answers the same request from the artifacts daemon 0 wrote to
// the shared disk, without learning, and returns identical counts and test
// vectors. Production runs one `seqlearnd -cache-dir /shared/dir` per
// machine; the in-process harness here is the same code path minus the
// network. Exits 1 if the second answer differs or needed a learning run.
package main

import (
	"context"
	"fmt"
	"os"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/seqlearn"
)

func main() {
	ctx := context.Background()
	cluster, err := fleet.Start(2, server.Config{})
	if err != nil {
		fail(err)
	}
	defer cluster.Close()
	urls := cluster.URLs()
	fmt.Printf("2 daemons over shared cache dir %s\n\n", cluster.Dir)

	c := seqlearn.Benchmark("s953")
	params := seqlearn.ServiceATPGParams{
		Mode: "forbidden", Backtracks: 30, MaxFaults: 300, Compact: true, IncludeTests: true,
	}

	answers := make([]*seqlearn.ServiceATPGResult, len(urls))
	for i, u := range urls {
		cl := seqlearn.NewClient(u)
		if answers[i], err = cl.GenerateTests(ctx, c, params); err != nil {
			fail(err)
		}
		r := answers[i]
		st := cluster.Servers()[i].Store().Stats()
		fmt.Printf("daemon %d: cache=%s tests-cache=%s faults=%d detected=%d untestable=%d aborted=%d tests=%d backtracks=%d\n",
			i, r.Cache, r.TestsCache, r.Total, r.Detected, r.Untestable, r.Aborted, r.Tests, r.Backtracks)
		fmt.Printf("          learns=%d disk-hits=%d peer-disk-hits=%d in %.1fms\n",
			st.Learns, st.DiskHits, st.PeerDiskHits, r.ElapsedMS)
	}

	want, got := answers[0], answers[1]
	identical := got.Fingerprint == want.Fingerprint && got.TestsFingerprint == want.TestsFingerprint &&
		got.Total == want.Total && got.Detected == want.Detected &&
		got.Untestable == want.Untestable && got.Aborted == want.Aborted &&
		got.Tests == want.Tests && got.Backtracks == want.Backtracks &&
		reflect.DeepEqual(got.TestVectors, want.TestVectors)
	fmt.Printf("\nidentical answers: %v\n", identical)
	fmt.Printf("learning runs fleet-wide: %d (shared dir holds the one artifact)\n", cluster.TotalLearns())

	st := cluster.Servers()[1].Store().Stats()
	if !identical || st.Learns != 0 || st.PeerDiskHits == 0 {
		fail(fmt.Errorf("daemon 1 did not reuse daemon 0's artifact: identical=%v learns=%d peer-disk-hits=%d",
			identical, st.Learns, st.PeerDiskHits))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fleet:", err)
	os.Exit(1)
}
