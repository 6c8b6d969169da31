package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// enqueueWaiter queues one Acquire and returns a channel that delivers
// the tag once the slot is granted. It blocks until the waiter is actually
// queued, so callers control enqueue order exactly.
func enqueueWaiter(t *testing.T, q *fairQueue, ctx context.Context, tag string, granted chan<- string) <-chan error {
	t.Helper()
	before := q.Depth()
	done := make(chan error, 1)
	go func() {
		err := q.Acquire(ctx)
		if err == nil {
			granted <- tag
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for q.Depth() == before {
		if time.Now().After(deadline) {
			t.Fatalf("waiter %s never queued", tag)
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

// TestFairQueueFIFOOrder is the ordering gate: with every slot busy and
// five waiters queued, releases grant the waiters in arrival order, and a
// TryAcquire racing a release never takes the slot ahead of the queue.
func TestFairQueueFIFOOrder(t *testing.T) {
	q := newFairQueue(2, 16)
	for i := 0; i < 2; i++ {
		if !q.TryAcquire() {
			t.Fatal("fresh queue has no free slot")
		}
	}

	granted := make(chan string, 8)
	ctx := context.Background()
	want := []string{"W1", "W2", "W3", "W4", "W5"}
	var dones []<-chan error
	for _, tag := range want {
		dones = append(dones, enqueueWaiter(t, q, ctx, tag, granted))
	}
	if d := q.Depth(); d != len(want) {
		t.Fatalf("queued depth = %d, want %d", d, len(want))
	}

	for i, w := range want {
		if q.TryAcquire() {
			t.Fatalf("TryAcquire took a slot ahead of %d queued waiters", q.Depth())
		}
		q.Release()
		// The released slot belongs to the head waiter already.
		if q.TryAcquire() {
			t.Fatalf("TryAcquire took the slot released for %s", w)
		}
		select {
		case got := <-granted:
			if got != w {
				t.Fatalf("grant %d = %s, want %s (arrival order %v)", i, got, w, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("grant %d (%s) never arrived", i, w)
		}
	}
	for _, done := range dones {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Two grants are still held; releasing them with nobody queued must
	// free both slots for TryAcquire again, and no more.
	q.Release()
	q.Release()
	if !q.TryAcquire() || !q.TryAcquire() {
		t.Fatal("slot not returned to the free pool")
	}
	if q.TryAcquire() {
		t.Fatal("extra slot materialized")
	}
}

// TestFairQueueShed: the queue bound sheds at once, and a shed request
// never occupies queue state.
func TestFairQueueShed(t *testing.T) {
	q := newFairQueue(1, 2)
	if !q.TryAcquire() {
		t.Fatal("no free slot")
	}
	granted := make(chan string, 4)
	ctx := context.Background()
	d1 := enqueueWaiter(t, q, ctx, "W1", granted)
	d2 := enqueueWaiter(t, q, ctx, "W2", granted)

	// Queue full: a third waiter sheds immediately.
	if err := q.Acquire(ctx); !errors.Is(err, errQueueFull) {
		t.Fatalf("Acquire on full queue = %v, want errQueueFull", err)
	}
	if q.Depth() != 2 {
		t.Fatalf("shed request left queue state: depth %d", q.Depth())
	}

	q.Release()
	q.Release()
	if err := <-d1; err != nil {
		t.Fatal(err)
	}
	if err := <-d2; err != nil {
		t.Fatal(err)
	}
}

// TestFairQueueCancelWhileQueued: a canceled waiter leaves the queue
// consistent, and later releases skip it.
func TestFairQueueCancelWhileQueued(t *testing.T) {
	q := newFairQueue(1, 16)
	if !q.TryAcquire() {
		t.Fatal("no free slot")
	}
	granted := make(chan string, 4)
	cctx, cancel := context.WithCancel(context.Background())
	dA := enqueueWaiter(t, q, cctx, "A1", granted)
	dB := enqueueWaiter(t, q, context.Background(), "B1", granted)

	cancel()
	if err := <-dA; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Acquire = %v", err)
	}
	if d := q.Depth(); d != 1 {
		t.Fatalf("depth after cancel = %d, want 1", d)
	}

	q.Release()
	if got := <-granted; got != "B1" {
		t.Fatalf("grant = %s, want B1", got)
	}
	if err := <-dB; err != nil {
		t.Fatal(err)
	}
	// B still holds the slot; nothing queued.
	if q.TryAcquire() {
		t.Fatal("slot double-granted")
	}
	q.Release()
	if !q.TryAcquire() {
		t.Fatal("slot lost after cancel/grant sequence")
	}
}

// TestFairQueueStress hammers the queue from many goroutines (run under
// -race in CI), a quarter of them with contexts that end while they may
// still be queued: every other Acquire must eventually grant, and the
// slot accounting must balance to exactly free==slots at the end.
func TestFairQueueStress(t *testing.T) {
	const slots, n = 4, 200
	q := newFairQueue(slots, n)
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ctx := context.Background()
			if i%4 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*100*time.Microsecond)
				defer cancel()
			}
			err := q.Acquire(ctx)
			if err == nil {
				q.Release()
			} else if i%4 == 0 && errors.Is(err, context.DeadlineExceeded) {
				err = nil
			} else {
				err = fmt.Errorf("waiter %d: %w", i, err)
			}
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("acquire starved")
		}
	}
	if q.Depth() != 0 {
		t.Fatalf("depth %d after drain", q.Depth())
	}
	for i := 0; i < slots; i++ {
		if !q.TryAcquire() {
			t.Fatalf("slot %d lost", i)
		}
	}
	if q.TryAcquire() {
		t.Fatal("extra slot materialized")
	}
}
