package atpg

import (
	"sync"
	"sync/atomic"
)

// The parallel driver. N PODEM workers pull fault-list positions from a
// shared queue and search speculatively; every worker reads the same
// frozen imply.Snapshot through the prebuilt relation index, so no learned
// data is copied or locked. The canonical loop (runState.merge) consumes
// their results in fault order and performs all accounting and fault
// dropping through runState.process — the same path the serial loop uses.
//
// Serial equivalence holds because
//
//   - Generate is a pure function of (circuit, fault, options), and the
//     per-fault options derive only from the fault's list position;
//   - drop flags are written only by the canonical loop, which replays the
//     serial order exactly, so a worker observing a dropped slot proves
//     the serial run would have skipped that fault too (flags are
//     monotonic and the loop is always behind);
//   - a fault claimed by worker A but detected by an earlier-ordered test
//     is reconciled by never asking for A's speculative result: the loop
//     skips the dropped position.
//
// Speculation is bounded: workers stay at most speculationWindow positions
// ahead of the loop, so the wasted search effort on faults that an earlier
// test is about to drop stays proportional to the worker count, not to the
// fault-list length.
//
// The loop's fault-dropping passes (a ParallelSim sized like the PODEM
// pool) time-share the CPU with in-flight speculative searches rather than
// preempting them: which side dominates varies by circuit, and the
// speculation window already caps how much search can contend with the
// merge path.

// workerState values for the per-position result cells.
const (
	genPending uint8 = iota // not generated yet
	genDone                 // results[i] holds a speculative Generate result
	genSkipped              // worker observed the slot already dropped
)

// speculationWindow bounds how far generation may run ahead of the
// canonical merge.
func speculationWindow(workers int) int {
	w := 4 * workers
	if w < 16 {
		w = 16
	}
	return w
}

// runParallel runs the canonical loop over results produced by the given
// number of speculative workers. Cancellation (RunOptions.Cancel) is
// observed at fault boundaries: a watcher flips the stopped flag, workers
// refuse new claims and the loop abandons the merge; at most one in-flight
// Generate per worker completes after the flag is set.
func (st *runState) runParallel(workers int) {
	n := len(st.faults)
	if n == 0 || st.res.Canceled { // nothing to search, or the seed replay was cancelled
		return
	}

	state := make([]uint8, n)
	results := make([]Result, n)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	frontier := 0 // guarded by mu: lowest position the loop has not finished
	window := speculationWindow(workers)

	var stopped atomic.Bool
	if st.opt.Cancel != nil {
		watcherDone := make(chan struct{})
		defer close(watcherDone)
		go func() {
			select {
			case <-st.opt.Cancel:
				stopped.Store(true)
				mu.Lock()
				cond.Broadcast() // wake waiters so they observe the flag
				mu.Unlock()
			case <-watcherDone:
			}
		}()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			a := newArena(st.c, &st.opt.ATPG)
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if st.dropped[st.slot[i]].Load() {
					// Already canonically dropped: the serial run skips it.
					mu.Lock()
					state[i] = genSkipped
					cond.Broadcast()
					mu.Unlock()
					continue
				}
				// Bound speculation; re-check the drop flag afterwards —
				// the loop may have dropped the slot while we waited.
				mu.Lock()
				for i >= frontier+window && !stopped.Load() {
					cond.Wait()
				}
				mu.Unlock()
				if stopped.Load() {
					return
				}
				if st.dropped[st.slot[i]].Load() {
					mu.Lock()
					state[i] = genSkipped
					cond.Broadcast()
					mu.Unlock()
					continue
				}
				g := st.generate(a, i)
				mu.Lock()
				results[i] = g
				state[i] = genDone
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	st.merge(func(i int) (Result, bool) {
		mu.Lock()
		frontier = i // every earlier position is finished
		cond.Broadcast()
		for state[i] == genPending && !stopped.Load() {
			cond.Wait()
		}
		s, g := state[i], results[i]
		results[i] = Result{} // read exactly once: release the test early
		mu.Unlock()
		switch s {
		case genPending:
			return Result{}, false // cancelled while waiting
		case genSkipped:
			// A worker skipped the position because the slot was dropped
			// at claim time, yet it is undropped now. Flags are monotonic
			// and only the loop writes them, so this cannot happen;
			// regenerate inline so the merge stays provably
			// serial-equivalent even if it ever did.
			return st.generate(newArena(st.c, &st.opt.ATPG), i), true
		}
		return g, true
	})
	// Release every worker still waiting on the speculation window.
	mu.Lock()
	frontier = n
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()
}
