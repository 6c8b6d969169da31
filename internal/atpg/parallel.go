package atpg

import (
	"sync"
	"sync/atomic"
)

// The parallel batch driver. N PODEM workers pull fault-list positions
// from a shared queue and search speculatively; every worker reads the
// same frozen imply.Snapshot through the prebuilt relation index, so no
// learned data is copied or locked. A coordinator consumes the results in
// canonical fault order and performs all accounting and fault dropping
// through runState.process — the same code path the serial loop uses.
//
// Serial equivalence holds because
//
//   - Generate is a pure function of (circuit, fault, options), and the
//     per-fault options derive only from the fault's list position;
//   - drop flags are written only by the coordinator, which replays the
//     serial order exactly, so a worker observing a dropped slot proves
//     the serial run would have skipped that fault too (flags are
//     monotonic and the coordinator is always behind);
//   - a fault claimed by worker A but detected by an earlier-ordered test
//     processed by the coordinator is reconciled by simply discarding A's
//     speculative result at merge time.
//
// Speculation is bounded: workers stay at most speculationWindow positions
// ahead of the coordinator, so the wasted search effort on faults that an
// earlier test is about to drop stays proportional to the worker count,
// not to the fault-list length.
//
// The coordinator's fault-dropping passes (a ParallelSim sized like the
// PODEM pool) time-share the CPU with in-flight speculative searches
// rather than preempting them: which side dominates varies by circuit, and
// the speculation window already caps how much search can contend with the
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

// runParallel executes the batch driver with the given worker count.
// Cancellation (RunOptions.Cancel) is observed at fault boundaries: a
// watcher flips the stopped flag, workers refuse new claims and the
// coordinator abandons the merge; at most one in-flight Generate per
// worker completes after the flag is set.
func (st *runState) runParallel(workers int) {
	n := len(st.faults)
	if n == 0 {
		return
	}

	state := make([]uint8, n)
	results := make([]Result, n)
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	frontier := 0 // guarded by mu: lowest position the coordinator has not finished
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
				// the coordinator may have dropped the slot while we
				// waited.
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

	for i := 0; i < n; i++ {
		// Poll the channel itself, not the watcher's flag: a channel closed
		// before the run starts must stop the merge at position 0 even if
		// the watcher goroutine has not been scheduled yet.
		if st.canceled() {
			st.res.Canceled = true
			break
		}
		if !st.dropped[st.slot[i]].Load() {
			mu.Lock()
			for state[i] == genPending && !stopped.Load() {
				cond.Wait()
			}
			if state[i] == genPending {
				// Cancelled while waiting for this position's result.
				mu.Unlock()
				st.res.Canceled = true
				break
			}
			s, g := state[i], results[i]
			results[i] = Result{} // read exactly once: release the test early
			mu.Unlock()
			if s == genSkipped {
				// A worker skipped the position because the slot was
				// dropped at claim time, yet it is undropped now. Flags
				// are monotonic and only the coordinator writes them, so
				// this cannot happen; regenerate inline so the merge stays
				// provably serial-equivalent even if it ever did.
				g = st.generate(newArena(st.c, &st.opt.ATPG), i)
			}
			st.process(i, g)
		}
		mu.Lock()
		frontier = i + 1
		cond.Broadcast()
		mu.Unlock()
	}
	// Release every worker still waiting on the speculation window (normal
	// completion leaves frontier == n already; the cancelled path does not).
	mu.Lock()
	frontier = n
	cond.Broadcast()
	mu.Unlock()
	wg.Wait()
}
