package fleet

// The fleet-grade acceptance tests of the distributed layer (run with
// -race in CI): instances sharing one cache directory must serve
// bit-identical results with exactly one cold learning run fleet-wide,
// and racing instances must converge on one disk artifact.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/seqlearn"
)

// serverConfig is the per-instance daemon configuration the fleet tests
// share (the harness adds the shared cache dir).
func serverConfig() server.Config { return server.Config{} }

// TestFleetSharedCacheOneColdLearn: warm through instance A, then ask B —
// B must serve the identical artifact from the shared disk without
// learning, and report it as a peer's artifact.
func TestFleetSharedCacheOneColdLearn(t *testing.T) {
	cl, err := Start(2, serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	urls := cl.URLs()
	a, b := seqlearn.NewClient(urls[0]), seqlearn.NewClient(urls[1])
	c := gen.MustBuild("s510jcsrre")

	cold, err := a.Learn(ctx, c, seqlearn.ServiceLearnParams{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cache != "miss" {
		t.Fatalf("cold learn on A: %+v", cold)
	}

	warm, err := b.Learn(ctx, c, seqlearn.ServiceLearnParams{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "disk" {
		t.Fatalf("B should load A's artifact from the shared dir: %+v", warm)
	}
	if warm.Fingerprint != cold.Fingerprint || warm.Relations != cold.Relations ||
		warm.CombTies != cold.CombTies || warm.SeqTies != cold.SeqTies ||
		warm.EquivClasses != cold.EquivClasses {
		t.Fatalf("instances disagree:\nA %+v\nB %+v", cold, warm)
	}

	if n := cl.TotalLearns(); n != 1 {
		t.Fatalf("fleet-wide learning runs = %d, want exactly 1", n)
	}
	bst := cl.Servers()[1].Store().Stats()
	if bst.DiskHits != 1 || bst.PeerDiskHits != 1 {
		t.Fatalf("B disk stats = hits %d peer %d, want 1/1", bst.DiskHits, bst.PeerDiskHits)
	}
	if n, err := cl.DiskArtifacts(); err != nil || n != 1 {
		t.Fatalf("disk artifacts = %d (%v), want 1", n, err)
	}
}

// TestFleetColdRaceOneArtifact: both instances hit with the same cold
// circuit at once. Each instance may have to learn (there is no
// cross-process singleflight — the disk is the only coupling), but the
// results must be bit-identical and the shared directory must end up
// with exactly one artifact.
func TestFleetColdRaceOneArtifact(t *testing.T) {
	cl, err := Start(2, serverConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	urls := cl.URLs()
	c := gen.MustBuild("s510jcsrre")

	const perInstance = 4
	results := make([]*seqlearn.ServiceLearnResult, 2*perInstance)
	errs := make([]error, 2*perInstance)
	var wg sync.WaitGroup
	for i := 0; i < 2*perInstance; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Fresh client per request: no client-side fingerprint cache,
			// every request races the daemons cold.
			results[i], errs[i] = seqlearn.NewClient(urls[i%2]).Learn(ctx, c,
				seqlearn.ServiceLearnParams{Workers: 1})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i, r := range results[1:] {
		if r.Fingerprint != results[0].Fingerprint || r.Relations != results[0].Relations ||
			r.CombTies != results[0].CombTies || r.SeqTies != results[0].SeqTies {
			t.Fatalf("response %d differs: %+v vs %+v", i+1, r, results[0])
		}
	}

	// Per-instance singleflight caps the fleet at one learn per instance;
	// the atomic-rename discipline caps the disk at one artifact.
	if n := cl.TotalLearns(); n < 1 || n > 2 {
		t.Fatalf("fleet-wide learning runs = %d, want 1 or 2", n)
	}
	if n, err := cl.DiskArtifacts(); err != nil || n != 1 {
		t.Fatalf("disk artifacts = %d (%v), want exactly 1", n, err)
	}
}

// TestFleetConcurrentClients drives concurrent clients across the fleet
// under a one-slot pool, so requests queue for it: every response must
// still be bit-identical, and each instance must serve exactly the
// requests sent to it.
func TestFleetConcurrentClients(t *testing.T) {
	cfg := serverConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 64
	cl, err := Start(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	urls := cl.URLs()
	c := gen.MustBuild("s510jcsrre")
	params := seqlearn.ServiceATPGParams{Mode: "forbidden", MaxFaults: 40, Workers: 1, IncludeTests: true}

	const perInstance = 8
	type result struct {
		resp *seqlearn.ServiceATPGResult
		err  error
	}
	results := make([]result, perInstance*len(urls))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := seqlearn.NewClient(urls[i%len(urls)]).GenerateTests(ctx, c, params)
			results[i] = result{resp, err}
		}()
	}
	wg.Wait()

	var first *seqlearn.ServiceATPGResult
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if first == nil {
			first = r.resp
			continue
		}
		if r.resp.Detected != first.Detected || r.resp.Total != first.Total ||
			!reflect.DeepEqual(r.resp.TestVectors, first.TestVectors) {
			t.Fatalf("response %d differs under contention", i)
		}
	}

	for i, srv := range cl.Servers() {
		if st := srv.StatsSnapshot(); st.Served["atpg"] != perInstance {
			t.Fatalf("instance %d served %d atpg requests, want %d (stats %+v)",
				i, st.Served["atpg"], perInstance, st)
		}
	}
}
