package atpg

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Cross-instance work sharing. A full ATPG run over a fault list can be
// split into partitions executed by different processes (different
// seqlearnd instances) and merged back into a result bit-identical to the
// unpartitioned run. The split follows the same discipline as the
// in-process parallel driver (parallel.go): Generate is a pure function of
// (circuit, fault, per-position options), so any executor can produce the
// speculative result for a fault-list position, and all accounting — fault
// dropping, test emission, counts — happens in canonical fault order
// through runState.process at merge time. What the in-process driver
// cannot share across machines is the drop flags, so a partition runner
// speculates on every position it owns: some of that search is discarded
// by the merge (the serial run would have dropped the fault first), which
// is the price of sharding without cross-instance coordination.
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

// effectiveFaults resolves the target list the way Run does: the collapsed
// universe unless RunOptions.Faults is set, truncated by MaxFaults. Every
// executor of a partitioned run must resolve the same list, in the same
// order, for positions to mean the same fault everywhere.
func effectiveFaults(c *netlist.Circuit, opt RunOptions) []fault.Fault {
	faults := opt.Faults
	if faults == nil {
		faults, _ = fault.Collapse(c)
	}
	if opt.MaxFaults > 0 && len(faults) > opt.MaxFaults {
		faults = faults[:opt.MaxFaults]
	}
	return faults
}

// RunPartition executes the PODEM searches for every fault-list position
// owned by part, with no fault dropping: each position's result is the pure
// function of (circuit, fault, position options) that the canonical merge
// consumes. Parallelism shards the partition's positions over workers
// (results are position-keyed, so worker count cannot change them);
// Cancel aborts at position boundaries.
func RunPartition(c *netlist.Circuit, opt RunOptions, part Partition) PartitionResult {
	if !part.Valid() {
		return PartitionResult{Partition: part, Canceled: true}
	}
	faults := effectiveFaults(c, opt)
	opt.ATPG.prepare(c)

	pre := make(map[fault.Fault]bool, len(opt.PreUntestable))
	for _, f := range opt.PreUntestable {
		pre[f] = true
	}

	res := PartitionResult{Partition: part, Total: len(faults)}
	for i := part.Index; i < len(faults); i += part.Count {
		res.Positions = append(res.Positions, i)
	}
	res.Results = make([]Result, len(res.Positions))

	sp := opt.Span.Start("podem")
	defer func() {
		sp.Add("targets", int64(res.Generated))
		sp.Add("backtracks", int64(res.Backtracks))
		sp.End()
	}()

	var canceled, generated, backtracks atomic.Int64
	workers := sim.ClampWorkers(opt.Parallelism)
	if workers > len(res.Positions) {
		workers = len(res.Positions)
	}
	if workers < 1 {
		workers = 1
	}
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
				select {
				case <-opt.Cancel:
					canceled.Store(1)
					return
				default:
				}
				i := res.Positions[k]
				if pre[faults[i]] {
					// The merge drops pre-untestable slots before processing,
					// so this result is never read; classify without search.
					res.Results[k] = Result{Outcome: Untestable}
					continue
				}
				start := time.Now()
				gopt := positionOptions(opt.ATPG, i)
				g := a.generate(faults[i], &gopt)
				sp.AddTime(time.Since(start))
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
	return res
}

// MergePartitions reassembles a full RunResult from partition results: the
// canonical in-order replay of runState.process over the speculative
// per-position outcomes, with fault dropping, independent test
// verification and (when RunOptions.CompactTests) the compaction pass run
// locally. The parts must exactly cover the fault list; their order does
// not matter. The merged result is bit-identical to atpg.Run with the same
// options on one machine: process consumes results in position order and
// discards the speculative outcome of any position an earlier test already
// dropped — exactly how the in-process coordinator reconciles its workers.
//
// Merging needs no learned data (no PODEM runs here, only packed fault
// simulation), so a thin client can gather partitions from a fleet and
// merge them without resolving the implication snapshot.
func MergePartitions(c *netlist.Circuit, opt RunOptions, parts []PartitionResult) (RunResult, error) {
	start := time.Now()
	faults := effectiveFaults(c, opt)
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

	opt.Faults = faults
	opt.MaxFaults = 0
	workers := sim.ClampWorkers(opt.Parallelism)
	st := newRunState(c, opt, faults, workers)
	fsSpan := opt.Span.Start("fault_sim")
	if st.psim != nil {
		st.psim.SetSpan(fsSpan)
	} else {
		st.fsim.SetSpan(fsSpan)
	}
	// Seed replay happens at merge time, exactly where Run puts it: seeds
	// drop faults before the canonical loop, and the loop then discards the
	// partitions' speculative results for dropped positions. (RunPartition
	// ignores SeedTests — dropping is merge-side only.)
	if len(opt.SeedTests) > 0 {
		sp := opt.Span.Start("seed_replay")
		st.replaySeeds()
		sp.Add("seeds", int64(len(opt.SeedTests)))
		sp.Add("kept", int64(st.res.SeedTestsKept))
		sp.Add("detected", int64(st.res.SeedDetected))
		sp.End()
	}
	for i := range faults {
		if st.canceled() {
			st.res.Canceled = true
			break
		}
		if st.dropped[st.slot[i]].Load() {
			continue
		}
		st.process(i, results[i])
	}
	if opt.CompactTests && !st.res.Canceled {
		sp := opt.Span.Start("compact")
		st.compactTests()
		sp.Add("removed", int64(st.res.TestsCompacted))
		sp.End()
	}
	st.res.Faults = faults
	st.res.Status = make([]FaultStatus, len(faults))
	for i := range faults {
		st.res.Status[i] = st.status[st.slot[i]]
	}
	st.res.Duration = time.Since(start)
	return st.res, nil
}
