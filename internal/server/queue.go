package server

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// Admission: a fixed slot pool in front of one bounded FIFO of waiters,
// with requests beyond the queue bound shed. The queue is fair in arrival
// order: slots are granted first come, first served, and TryAcquire never
// takes a slot while anyone is queued.
//
// All admission state mutates under one mutex, and a freed slot is handed
// directly to the head waiter (ownership transfer) rather than returned to
// a shared pool for waiters to race over, so a burst arriving between
// release and re-acquire cannot barge past a queued request.

// errQueueFull sheds a request when the queue is at capacity.
var errQueueFull = errors.New("compute pool and admission queue full")

type fqWaiter struct {
	ready   chan struct{} // closed when a slot is granted
	granted bool          // guarded by fairQueue.mu
}

// fairQueue is the slot pool and its FIFO admission queue. The zero value
// is not usable; construct with newFairQueue.
type fairQueue struct {
	slots    int
	maxQueue int

	mu      sync.Mutex
	free    int
	waiters []*fqWaiter // arrival order; the head is granted next
}

func newFairQueue(slots, maxQueue int) *fairQueue {
	return &fairQueue{slots: slots, maxQueue: maxQueue, free: slots}
}

// Slots returns the pool capacity.
func (q *fairQueue) Slots() int { return q.slots }

// Depth returns the number of queued waiters.
func (q *fairQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.waiters)
}

// TryAcquire grants a slot immediately when one is free and nobody is
// queued (a free slot with waiters cannot happen — releases hand slots to
// waiters directly — but the guard keeps the invariant local).
func (q *fairQueue) TryAcquire() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tryAcquireLocked()
}

func (q *fairQueue) tryAcquireLocked() bool {
	if q.free > 0 && len(q.waiters) == 0 {
		q.free--
		return true
	}
	return false
}

// Acquire queues the caller and blocks until a released slot is handed to
// it in arrival order, the context ends, or the queue is full
// (errQueueFull, immediately). On nil error the caller owns a slot and
// must Release it.
func (q *fairQueue) Acquire(ctx context.Context) error {
	q.mu.Lock()
	if q.tryAcquireLocked() {
		q.mu.Unlock()
		return nil
	}
	if len(q.waiters) >= q.maxQueue {
		q.mu.Unlock()
		return errQueueFull
	}
	w := &fqWaiter{ready: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	q.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		defer q.mu.Unlock()
		if w.granted {
			// A release handed us the slot while the context was ending;
			// pass it on (or free it) instead of leaking it.
			q.releaseLocked()
		} else {
			q.waiters = slices.DeleteFunc(q.waiters, func(c *fqWaiter) bool { return c == w })
		}
		return ctx.Err()
	}
}

// Release returns a slot: directly to the head waiter when anyone is
// queued, to the free pool otherwise.
func (q *fairQueue) Release() {
	q.mu.Lock()
	q.releaseLocked()
	q.mu.Unlock()
}

func (q *fairQueue) releaseLocked() {
	if len(q.waiters) == 0 {
		q.free++
		return
	}
	w := q.waiters[0]
	q.waiters = slices.Delete(q.waiters, 0, 1)
	w.granted = true
	close(w.ready)
}
