package atpg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Cross-instance work sharing. A full ATPG run over a fault list can be
// split into partitions executed by different processes (different
// seqlearnd instances) and merged back into a result bit-identical to the
// unpartitioned run. The partition merge is the pipeline's third result
// source (driver.go): Generate is a pure function of (circuit, fault,
// per-position options), so any executor can produce the speculative
// result for a fault-list position, and MergePartitions feeds the gathered
// results to the same canonical loop Run uses, where all accounting —
// fault dropping, test emission, counts — happens in fault order. What the
// in-process parallel driver cannot share across machines is the drop
// flags, so a partition runner speculates on every position it owns: some
// of that search is discarded by the merge (the serial run would have
// dropped the fault first), which is the price of sharding without
// cross-instance coordination.
//
// Positions are assigned round-robin (position i belongs to partition
// i mod Count) so the hard faults that cluster in list order spread across
// instances.

// Partition identifies one shard of a fault list: the positions i with
// i % Count == Index.
type Partition struct {
	Index int
	Count int
}

// Valid reports whether the partition is well-formed.
func (p Partition) Valid() bool { return p.Count >= 1 && p.Index >= 0 && p.Index < p.Count }

// String renders the wire form "i/n".
func (p Partition) String() string { return fmt.Sprintf("%d/%d", p.Index, p.Count) }

// ParsePartition parses the wire form "i/n" with 0 <= i < n.
func ParsePartition(s string) (Partition, error) {
	var p Partition
	if _, err := fmt.Sscanf(s, "%d/%d", &p.Index, &p.Count); err != nil || !p.Valid() || s != p.String() {
		return Partition{}, fmt.Errorf("atpg: malformed partition %q: want \"i/n\" with 0 <= i < n", s)
	}
	return p, nil
}

// PartitionResult carries the speculative per-position outcomes of one
// partition: Results[k] is the Generate result for fault-list position
// Positions[k]. Total is the full fault-list length the positions index
// into, so a merge can verify the partitions agree about the universe.
type PartitionResult struct {
	Partition Partition
	Total     int
	Positions []int
	Results   []Result

	// Generated counts positions actually searched (pre-untestable
	// positions are classified without search); Backtracks sums the search
	// cost of this partition, merged or not.
	Generated  int
	Backtracks int

	// Canceled reports a cooperative abort; the result is unusable for
	// merging (positions are missing).
	Canceled bool
}

// RunPartition executes the PODEM searches for every fault-list position
// owned by part, with no fault dropping: each position's result is the pure
// function of (circuit, fault, position options) that the canonical merge
// consumes. Pre-untestable positions are classified without search, like
// every driver classifies them. Parallelism shards the partition's
// positions over workers (results are position-keyed, so worker count
// cannot change them); Cancel aborts at position boundaries.
func RunPartition(c *netlist.Circuit, opt RunOptions, part Partition) PartitionResult {
	if !part.Valid() {
		return PartitionResult{Partition: part, Canceled: true}
	}
	faults := TargetFaults(c, opt)
	opt.ATPG.prepare(c)
	st := newRunState(c, opt, faults)
	st.podemSpan = opt.Span.Start("podem")

	res := PartitionResult{Partition: part, Total: len(faults)}
	for i := part.Index; i < len(faults); i += part.Count {
		res.Positions = append(res.Positions, i)
	}
	res.Results = make([]Result, len(res.Positions))

	var canceled, generated, backtracks atomic.Int64
	workers := min(sim.ClampWorkers(opt.Parallelism), max(len(res.Positions), 1))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			a := newArena(c, &opt.ATPG)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(res.Positions) {
					return
				}
				if st.canceled() {
					canceled.Store(1)
					return
				}
				i := res.Positions[k]
				if st.dropped[st.slot[i]].Load() {
					// Pre-untestable: the merge drops the slot before the
					// canonical loop, so this result is never read.
					res.Results[k] = Result{Outcome: Untestable}
					continue
				}
				g := st.generate(a, i)
				res.Results[k] = g
				generated.Add(1)
				backtracks.Add(int64(g.Backtracks))
			}
		}()
	}
	wg.Wait()
	res.Generated = int(generated.Load())
	res.Backtracks = int(backtracks.Load())
	res.Canceled = canceled.Load() != 0
	st.podemSpan.Add("targets", int64(res.Generated))
	st.podemSpan.Add("backtracks", int64(res.Backtracks))
	return res
}

// MergePartitions reassembles a full RunResult from partition results: the
// canonical loop of runState.merge over the speculative per-position
// outcomes, with fault dropping, independent test verification and (when
// RunOptions.CompactTests) the compaction pass run locally. The parts must
// exactly cover the fault list; their order does not matter. The merged
// result is bit-identical to atpg.Run with the same options on one
// machine: the loop consumes results in position order and never reads
// the speculative outcome of a position an earlier test already dropped —
// exactly how it reconciles the in-process parallel workers. Seed replay
// happens here, where Run puts it (RunPartition ignores SeedTests).
//
// Merging needs no learned data (no PODEM runs here, only packed fault
// simulation), so a thin client can gather partitions from a fleet and
// merge them without resolving the implication snapshot.
func MergePartitions(c *netlist.Circuit, opt RunOptions, parts []PartitionResult) (RunResult, error) {
	start := time.Now()
	faults := TargetFaults(c, opt)
	n := len(faults)

	results := make([]Result, n)
	covered := make([]bool, n)
	seen := 0
	for _, p := range parts {
		if p.Canceled {
			return RunResult{}, fmt.Errorf("atpg: merge: partition %s was canceled", p.Partition)
		}
		if p.Total != n {
			return RunResult{}, fmt.Errorf("atpg: merge: partition %s ran over %d faults, merge has %d",
				p.Partition, p.Total, n)
		}
		if len(p.Positions) != len(p.Results) {
			return RunResult{}, fmt.Errorf("atpg: merge: partition %s: %d positions, %d results",
				p.Partition, len(p.Positions), len(p.Results))
		}
		for k, i := range p.Positions {
			if i < 0 || i >= n {
				return RunResult{}, fmt.Errorf("atpg: merge: partition %s: position %d out of range [0,%d)",
					p.Partition, i, n)
			}
			if covered[i] {
				return RunResult{}, fmt.Errorf("atpg: merge: position %d covered twice", i)
			}
			covered[i] = true
			results[i] = p.Results[k]
			seen++
		}
	}
	if seen != n {
		return RunResult{}, fmt.Errorf("atpg: merge: %d of %d positions covered; missing partitions", seen, n)
	}

	st := newRunState(c, opt, faults)
	st.open()
	st.replaySeeds()
	st.merge(func(i int) (Result, bool) { return results[i], true })
	return st.finish(start), nil
}
