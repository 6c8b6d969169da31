package fault

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// ParallelSim shards packed fault simulation over a pool of PackedSim
// workers: the fault list is split into batches of logic.W (64) faults, and
// workers claim whole batches, so the two parallelism axes compose —
// workers × 64 machines per word. The good machine is simulated once per
// LoadSequence and its planes shared read-only; each worker owns a private
// packed engine, so any number of batches simulate concurrently without
// locks. Detection of one fault is independent of every other fault and
// results land in a slice indexed by input order, so the outcome is
// bit-identical to a serial Sim for any worker count and any batch
// schedule.
//
// A ParallelSim is not safe for concurrent use itself: LoadSequence and
// Detect must not overlap.
type ParallelSim struct {
	workers []*PackedSim // workers[0] is the primary that loads sequences

	// span, when non-nil, aggregates sweep timings at the coordinator
	// (span.go); the worker clones stay unobserved.
	span *obs.Span
}

// NewParallelSim returns a sharded packed fault simulator for c.
// workers <= 0 selects one per core; oversized requests are clamped the
// same way the learning pipeline clamps its pool (sim.ClampWorkers).
func NewParallelSim(c *netlist.Circuit, workers int) *ParallelSim {
	workers = sim.ClampWorkers(workers)
	p := &ParallelSim{workers: make([]*PackedSim, workers)}
	p.workers[0] = NewPackedSim(c)
	for i := 1; i < workers; i++ {
		p.workers[i] = p.workers[0].Clone()
	}
	return p
}

// Workers returns the resolved pool size.
func (p *ParallelSim) Workers() int { return len(p.workers) }

// LoadSequence simulates the good machine once over the vectors (nil init
// = all X) and shares the cached planes with every worker.
func (p *ParallelSim) LoadSequence(vectors [][]logic.V, init []logic.V) {
	defer record(p.span, time.Now(), 0, len(vectors))
	p.workers[0].LoadSequence(vectors, init)
	for _, w := range p.workers[1:] {
		w.adoptSequence(p.workers[0])
	}
}

// Frames returns the number of loaded frames.
func (p *ParallelSim) Frames() int { return p.workers[0].Frames() }

// Detect simulates every fault against the loaded sequence, partitioning
// whole 64-fault batches over the worker pool, and returns per-fault
// outcomes in input order — bit-identical to Sim.DetectAll for any worker
// count.
func (p *ParallelSim) Detect(faults []Fault) []Detection {
	defer record(p.span, time.Now(), len(faults), 0)
	out := make([]Detection, len(faults))
	primary := p.workers[0]
	batches := primary.numBatches(len(faults))
	workers := len(p.workers)
	if workers > batches {
		workers = batches
	}
	if workers <= 1 {
		for k := 0; k < batches; k++ {
			lo, hi := primary.batchBounds(k, len(faults))
			primary.detectBatch(out, faults, lo, hi)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(s *PackedSim) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= batches {
					return
				}
				lo, hi := s.batchBounds(k, len(faults))
				s.detectBatch(out, faults, lo, hi)
			}
		}(p.workers[w])
	}
	wg.Wait()
	return out
}
