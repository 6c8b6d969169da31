package atpg

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// partitionedRun scatters the fault list over n partitions, runs each
// independently (its own relation index, like a separate process would),
// and gathers them through MergePartitions.
func partitionedRun(t *testing.T, c *netlist.Circuit, opt RunOptions, n int) RunResult {
	t.Helper()
	parts := make([]PartitionResult, n)
	for i := 0; i < n; i++ {
		parts[i] = RunPartition(c, opt, Partition{Index: i, Count: n})
	}
	// Merge in scrambled order: gather order must not matter.
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	res, err := MergePartitions(c, opt, parts)
	if err != nil {
		t.Fatalf("merge %d partitions: %v", n, err)
	}
	return res
}

// dumpStatus renders the per-fault classification vector.
func dumpStatus(res RunResult) string {
	var sb strings.Builder
	for i, s := range res.Status {
		fmt.Fprintf(&sb, "%d=%s\n", i, s)
	}
	return sb.String()
}

// TestPartitionMergeEquivalence is the cross-instance analogue of
// TestDriverSerialEquivalence: for any partition count, scattering the
// fault list over independent RunPartition executions and gathering with
// MergePartitions is byte-identical to the unpartitioned atpg.Run — the
// property the fleet's /v1/atpg?partition=i/n sharding rests on.
func TestPartitionMergeEquivalence(t *testing.T) {
	for _, name := range []string{"s953", "s510jcsrre"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{})
		faults, _ := fault.Collapse(c)
		if len(faults) > 150 {
			faults = faults[:150]
		}
		base := driverRun(c, lr, faults, ModeForbidden, 1)
		baseDump, baseStatus := dumpRun(base), dumpStatus(base)
		for _, n := range []int{1, 2, 3, 5} {
			var ties []learn.Tie
			ties = append(ties, lr.CombTies...)
			ties = append(ties, lr.SeqTies...)
			opt := RunOptions{
				Faults: faults,
				ATPG: Options{
					BacktrackLimit: 30,
					Windows:        []int{1, 2, 4},
					Mode:           ModeForbidden,
					DB:             lr.DB,
					Ties:           ties,
					FillSeed:       0x7e57,
				},
			}
			got := partitionedRun(t, c, opt, n)
			if gotDump := dumpRun(got); gotDump != baseDump {
				t.Fatalf("%s: %d-way partitioned run differs from serial at:\n%s",
					name, n, firstDiff(baseDump, gotDump))
			}
			if gotStatus := dumpStatus(got); gotStatus != baseStatus {
				t.Fatalf("%s: %d-way partitioned status differs at:\n%s",
					name, n, firstDiff(baseStatus, gotStatus))
			}
		}
	}
}

// TestPartitionMergeOptionVariants covers the accounting branches the basic
// equivalence test does not reach: compaction, partition-internal worker
// parallelism, merge-side parallel fault sim, pre-untestable faults and
// duplicate fault-list entries.
func TestPartitionMergeOptionVariants(t *testing.T) {
	c := gen.MustBuild("s953")
	lr := learn.Learn(c, learn.Options{})
	faults, _ := fault.Collapse(c)
	if len(faults) > 120 {
		faults = faults[:120]
	}
	// Duplicate positions must share a drop slot through the merge too.
	faults = append(faults, faults[0], faults[5])
	opt := RunOptions{
		Faults:        faults,
		CompactTests:  true,
		PreUntestable: []fault.Fault{faults[2], faults[9]},
		ATPG: Options{
			BacktrackLimit: 30,
			Windows:        []int{1, 2, 4},
			Mode:           ModeKnown,
			DB:             lr.DB,
			FillSeed:       0x7e57,
		},
	}
	base := Run(c, opt)
	baseDump, baseStatus := dumpRun(base), dumpStatus(base)
	if base.TestsCompacted == 0 {
		t.Log("setup: compaction removed nothing; variant still exercises the branch")
	}
	for _, cfg := range []struct {
		n, partWorkers, mergeWorkers int
	}{
		{2, 1, 1}, {3, 4, 1}, {2, 1, 4}, {4, 3, 3},
	} {
		popt := opt
		popt.Parallelism = cfg.partWorkers
		parts := make([]PartitionResult, cfg.n)
		for i := range parts {
			parts[i] = RunPartition(c, popt, Partition{Index: i, Count: cfg.n})
		}
		mopt := opt
		mopt.Parallelism = cfg.mergeWorkers
		got, err := MergePartitions(c, mopt, parts)
		if err != nil {
			t.Fatalf("%+v: merge: %v", cfg, err)
		}
		if gotDump := dumpRun(got); gotDump != baseDump {
			t.Fatalf("%+v: partitioned run differs from serial at:\n%s",
				cfg, firstDiff(baseDump, gotDump))
		}
		if gotStatus := dumpStatus(got); gotStatus != baseStatus {
			t.Fatalf("%+v: status differs at:\n%s", cfg, firstDiff(baseStatus, gotStatus))
		}
	}
}

// TestPartitionMergeWithSeeds checks the incremental-reuse path: seed tests
// replay at merge time, and the merged result matches the single-instance
// seeded run even though the partitions searched positions the seeds drop.
func TestPartitionMergeWithSeeds(t *testing.T) {
	c := gen.MustBuild("s953")
	lr := learn.Learn(c, learn.Options{})
	faults, _ := fault.Collapse(c)
	if len(faults) > 100 {
		faults = faults[:100]
	}
	opt := RunOptions{
		Faults: faults,
		ATPG: Options{
			BacktrackLimit: 30,
			Windows:        []int{1, 2, 4},
			Mode:           ModeForbidden,
			DB:             lr.DB,
			FillSeed:       0x7e57,
		},
	}
	seeds := Run(c, opt).Tests
	if len(seeds) < 2 {
		t.Fatal("setup: no seed tests emitted")
	}
	seeds = seeds[:len(seeds)/2]
	opt.SeedTests = seeds

	base := Run(c, opt)
	if base.SeedTestsKept == 0 {
		t.Fatal("setup: seeds were not kept")
	}
	got := partitionedRun(t, c, opt, 3)
	if baseDump, gotDump := dumpRun(base), dumpRun(got); gotDump != baseDump {
		t.Fatalf("seeded partitioned run differs from serial at:\n%s", firstDiff(baseDump, gotDump))
	}
	if got.SeedTestsKept != base.SeedTestsKept || got.SeedDetected != base.SeedDetected {
		t.Fatalf("seed accounting differs: got kept=%d detected=%d, want kept=%d detected=%d",
			got.SeedTestsKept, got.SeedDetected, base.SeedTestsKept, base.SeedDetected)
	}
}

// TestMergePartitionsValidation exercises every coverage-check failure: the
// merge must refuse rather than silently produce a non-canonical result.
func TestMergePartitionsValidation(t *testing.T) {
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{})
	faults, _ := fault.Collapse(c)
	faults = faults[:20]
	opt := RunOptions{
		Faults: faults,
		ATPG:   Options{BacktrackLimit: 30, Windows: []int{1, 2}, Mode: ModeForbidden, DB: lr.DB},
	}
	p0 := RunPartition(c, opt, Partition{Index: 0, Count: 2})
	p1 := RunPartition(c, opt, Partition{Index: 1, Count: 2})

	cases := []struct {
		name  string
		parts []PartitionResult
		want  string
	}{
		{"missing partition", []PartitionResult{p0}, "positions covered"},
		{"duplicate coverage", []PartitionResult{p0, p0}, "covered twice"},
		{"canceled partition", []PartitionResult{p0, {Partition: Partition{1, 2}, Canceled: true}}, "canceled"},
		{"wrong universe", []PartitionResult{p0, {Partition: Partition{1, 2}, Total: 99}}, "merge has"},
		{"misaligned slices", []PartitionResult{p0, {Partition: Partition{1, 2}, Total: 20, Positions: []int{1}}}, "1 positions, 0 results"},
		{"position out of range", []PartitionResult{p0, {Partition: Partition{1, 2}, Total: 20,
			Positions: []int{99}, Results: make([]Result, 1)}}, "out of range"},
	}
	for _, tc := range cases {
		if _, err := MergePartitions(c, opt, tc.parts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got err %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := MergePartitions(c, opt, []PartitionResult{p0, p1}); err != nil {
		t.Fatalf("valid merge rejected: %v", err)
	}
}

// TestParsePartition pins the wire form.
func TestParsePartition(t *testing.T) {
	good := map[string]Partition{
		"0/1": {0, 1}, "0/4": {0, 4}, "3/4": {3, 4}, "11/12": {11, 12},
	}
	for s, want := range good {
		got, err := ParsePartition(s)
		if err != nil || got != want {
			t.Errorf("ParsePartition(%q) = %v, %v; want %v", s, got, err, want)
		}
		if got.String() != s {
			t.Errorf("Partition%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	for _, s := range []string{"", "1", "1/", "/2", "2/2", "3/2", "-1/2", "a/b", "1/2/3", "01/2", " 1/2", "1/2 "} {
		if p, err := ParsePartition(s); err == nil {
			t.Errorf("ParsePartition(%q) = %v, want error", s, p)
		}
	}
}

// TestRunPartitionCancel checks the cooperative abort: a canceled partition
// marks itself unusable and the merge refuses it.
func TestRunPartitionCancel(t *testing.T) {
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{})
	cancel := make(chan struct{})
	close(cancel)
	opt := RunOptions{
		Cancel: cancel,
		ATPG:   Options{BacktrackLimit: 30, Windows: []int{1, 2}, Mode: ModeForbidden, DB: lr.DB},
	}
	p := RunPartition(c, opt, Partition{Index: 0, Count: 1})
	if !p.Canceled {
		t.Fatal("pre-closed cancel channel did not cancel the partition run")
	}
	if _, err := MergePartitions(c, opt, []PartitionResult{p}); err == nil {
		t.Fatal("merge accepted a canceled partition")
	}
	if bad := RunPartition(c, RunOptions{}, Partition{Index: 2, Count: 2}); !bad.Canceled {
		t.Fatal("invalid partition not rejected")
	}
}

// TestRunPartitionPodemSpan checks the partition runner's podem span is an
// aggregate of its searches only, as Run's is: with one worker the summed
// search time cannot exceed the wall time of the call. A span that is both
// accumulated and ended would report search time plus wall time.
func TestRunPartitionPodemSpan(t *testing.T) {
	c := gen.MustBuild("s953")
	lr := learn.Learn(c, learn.Options{})
	opt := runOptsFor(lr, 1)
	opt.MaxFaults = 60
	tr := obs.NewTrace("partition", "atpg")
	opt.Span = tr.Root()
	start := time.Now()
	res := RunPartition(c, opt, Partition{Index: 0, Count: 1})
	wall := time.Since(start)
	if res.Canceled || res.Generated == 0 {
		t.Fatalf("partition searched nothing: %+v", res)
	}
	var podem *obs.SpanTree
	for _, sp := range tr.JSON().Root.Children {
		if sp.Name == "podem" {
			podem = sp
		}
	}
	if podem == nil {
		t.Fatal("no podem span")
	}
	if got := podem.Attrs["targets"]; got != int64(res.Generated) {
		t.Fatalf("podem targets = %d, want %d", got, res.Generated)
	}
	if wallMS := float64(wall) / float64(time.Millisecond); podem.DurationMS > wallMS {
		t.Fatalf("podem span %.3fms exceeds the %.3fms wall time of a one-worker partition run",
			podem.DurationMS, wallMS)
	}
}
