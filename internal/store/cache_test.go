package store

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuits"
	"repro/internal/learn"
)

// gateFS holds the first Open of a file with extension ext until release
// is closed, pinning a flight owner inside its disk load so concurrent
// requests can be lined up behind it.
type gateFS struct {
	osFS
	ext     string
	held    atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) Open(name string) (File, error) {
	if strings.HasSuffix(name, g.ext) && g.held.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
	return g.osFS.Open(name)
}

// cacheCounters is one cache instance's slice of Stats.
type cacheCounters struct {
	entries                   int
	coalesced, runs, canceled int64
}

// cacheKind drives one of the store's cache instances through its public
// API: prepare returns a request function bound to a fresh store, and
// counters picks the instance's fields out of Stats.
type cacheKind struct {
	name     string
	ext      string // the file a build loads first
	prepare  func(t *testing.T, s *Store) func(cancel <-chan struct{}) (Source, error)
	counters func(Stats) cacheCounters
}

var cacheKinds = []cacheKind{
	{
		name: "learn",
		ext:  ".imply",
		prepare: func(t *testing.T, s *Store) func(<-chan struct{}) (Source, error) {
			return func(cancel <-chan struct{}) (Source, error) {
				_, src, err := s.Learn(circuits.Figure2(), learn.Options{Cancel: cancel})
				return src, err
			}
		},
		counters: func(st Stats) cacheCounters {
			return cacheCounters{st.Entries, st.Coalesced, st.Learns, st.LearnCanceled}
		},
	},
	{
		name: "atpg",
		ext:  ".tests",
		prepare: func(t *testing.T, s *Store) func(<-chan struct{}) (Source, error) {
			art := mustLearn(t, s, circuits.Figure2())
			return func(cancel <-chan struct{}) (Source, error) {
				opt := atpgOpts(art)
				opt.Cancel = cancel
				_, src, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: opt})
				return src, err
			}
		},
		counters: func(st Stats) cacheCounters {
			return cacheCounters{st.ATPGEntries, st.ATPGCoalesced, st.ATPGRuns, st.ATPGCanceled}
		},
	},
}

type callResult struct {
	src Source
	err error
}

func goCall(call func(<-chan struct{}) (Source, error), cancel <-chan struct{}) <-chan callResult {
	out := make(chan callResult, 1)
	go func() {
		src, err := call(cancel)
		out <- callResult{src, err}
	}()
	return out
}

func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestCacheContract pins the cancellation contract both cache instances
// share: coalesced waiters release promptly, a live waiter takes over from
// an abandoned owner, and canceled runs are never cached.
func TestCacheContract(t *testing.T) {
	for _, k := range cacheKinds {
		setup := func(t *testing.T) (*Store, *gateFS, func(<-chan struct{}) (Source, error)) {
			g := &gateFS{ext: k.ext, entered: make(chan struct{}), release: make(chan struct{})}
			s := New(Options{Dir: t.TempDir(), FS: g})
			return s, g, k.prepare(t, s)
		}
		closed := make(chan struct{})
		close(closed)

		t.Run(k.name+"/coalesced-waiter-cancel", func(t *testing.T) {
			s, g, call := setup(t)
			owner := goCall(call, nil)
			await(t, g.entered, "the owner's disk load")

			// The waiter's client is already gone: it must return at once,
			// not ride out the owner's run.
			r := await(t, goCall(call, closed), "the canceled waiter")
			if r.err != ErrCanceled || r.src != SourceCoalesced {
				t.Fatalf("waiter: src=%v err=%v, want coalesced ErrCanceled", r.src, r.err)
			}

			close(g.release)
			if r := await(t, owner, "the owner"); r.err != nil || r.src != SourceLearned {
				t.Fatalf("owner: src=%v err=%v", r.src, r.err)
			}
			if c := k.counters(s.Stats()); c != (cacheCounters{entries: 1, coalesced: 1, runs: 1}) {
				t.Fatalf("counters = %+v", c)
			}
		})

		t.Run(k.name+"/owner-cancel-takeover", func(t *testing.T) {
			s, g, call := setup(t)
			ownerCancel := make(chan struct{})
			owner := goCall(call, ownerCancel)
			await(t, g.entered, "the owner's disk load")

			waiter := goCall(call, nil)
			for deadline := time.Now().Add(10 * time.Second); k.counters(s.Stats()).coalesced == 0; {
				if time.Now().After(deadline) {
					t.Fatal("waiter never coalesced onto the owner's flight")
				}
				time.Sleep(time.Millisecond)
			}

			// The owner's client leaves mid-flight; the live waiter must run
			// the build itself rather than inherit the abandoner's error.
			close(ownerCancel)
			close(g.release)
			if r := await(t, owner, "the owner"); r.err != ErrCanceled {
				t.Fatalf("owner: err=%v, want ErrCanceled", r.err)
			}
			if r := await(t, waiter, "the waiter"); r.err != nil || r.src != SourceLearned {
				t.Fatalf("waiter: src=%v err=%v, want a fresh run", r.src, r.err)
			}
			want := cacheCounters{entries: 1, coalesced: 1, runs: 1, canceled: 1}
			if c := k.counters(s.Stats()); c != want {
				t.Fatalf("counters = %+v, want %+v", c, want)
			}
		})

		t.Run(k.name+"/canceled-run-not-cached", func(t *testing.T) {
			s, g, call := setup(t)
			close(g.release)
			if _, err := call(closed); err != ErrCanceled {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if c := k.counters(s.Stats()); c != (cacheCounters{canceled: 1}) {
				t.Fatalf("counters after canceled run = %+v", c)
			}
			// Neither memory nor disk kept it: the next live request runs.
			if src, err := call(nil); err != nil || src != SourceLearned {
				t.Fatalf("post-cancel: src=%v err=%v, want a fresh run", src, err)
			}
		})
	}
}
