package learn

import (
	"sync"
	"sync/atomic"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// enginePool is one packed scheduled simulator per worker; pool[0] doubles
// as the serial engine. The learner and the sweep replay both shard their
// lane batches over one.
type enginePool []*sim.PackedEngine

func newEnginePool(c *netlist.Circuit, workers int) enginePool {
	p := make(enginePool, max(workers, 1))
	p[0] = sim.NewPackedEngine(c)
	for i := 1; i < len(p); i++ {
		p[i] = p[0].Clone()
	}
	return p
}

// setTies installs the tie constants on every worker engine. The closure
// under constant propagation is computed once and copied to the clones.
func (p enginePool) setTies(ties map[netlist.NodeID]logic.V) {
	p[0].SetTies(ties)
	for _, e := range p[1:] {
		e.CopyTies(p[0])
	}
}

// run dispatches fn(engine, i) for i in [0, n) over the pool. Each
// invocation gets a worker-private engine; items (lane batches, or targets
// for the engine-free schedule stage) are handed out by an atomic counter,
// so the assignment of items to workers is arbitrary — callers must write
// only to item-private shards and merge them in item order afterwards.
// With one engine the sweep runs inline on the caller's goroutine.
//
// A non-nil stop is polled at every item boundary; once it reports true
// the dispatch ends with the remaining items unprocessed.
func (p enginePool) run(n int, stop func() bool, fn func(pe *sim.PackedEngine, i int)) {
	if stop == nil {
		stop = func() bool { return false }
	}
	if len(p) == 1 || n <= 1 {
		for i := 0; i < n && !stop(); i++ {
			fn(p[0], i)
		}
		return
	}
	workers := min(len(p), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(pe *sim.PackedEngine) {
			defer wg.Done()
			for !stop() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(pe, i)
			}
		}(p[w])
	}
	wg.Wait()
}

// runParallel dispatches fn over the learner's pool. A fired
// Options.Cancel stops the dispatch at the next item boundary — sweeps of a
// canceled run end promptly with unprocessed items left zero-valued, which
// is fine because a canceled Result is discard-only.
func (l *learner) runParallel(n int, fn func(pe *sim.PackedEngine, i int)) {
	l.pool.run(n, l.canceled, fn)
}

// setTies installs the tie constants on the learner's pool and remembers
// them for the sweep recorder.
func (l *learner) setTies(ties map[netlist.NodeID]logic.V) {
	l.curTies = ties
	l.pool.setTies(ties)
}
