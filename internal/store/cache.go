package store

import (
	"container/list"
	"errors"

	"repro/internal/obs"
)

// ErrCanceled reports that the run (learning or ATPG) executing a request
// was abandoned mid-flight — its client disconnected or its deadline
// expired. Coalesced waiters whose own clients are alive retry; the
// abandoning request's handler maps it to a 503 or 504. Canceled runs are
// never cached.
var ErrCanceled = errors.New("store: run canceled")

// cache is one content-addressed artifact cache: an LRU of values keyed by
// fingerprint, singleflight over in-progress builds, and the
// disk-then-compute-then-persist build path. The Store holds two — learn
// and atpg — which share its mutex, disk directory and degradation state;
// each kind supplies only its artifact's load, compute and save (a job).
type cache[V any] struct {
	s        *Store
	lru      *list.List // of *cacheEntry[V], most recent first
	byFP     map[string]*list.Element
	inflight map[string]*flight[V]

	// Counters live in the obs registry under this cache's label, so
	// /v1/stats and /metrics read the same cells.
	hits, coalesced, diskHits, peerDiskHits, misses, runs, evictions,
	canceled *obs.Counter
}

type cacheEntry[V any] struct {
	fp string
	v  V
}

// flight is one in-progress build that concurrent requests for the same
// fingerprint wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// job is the per-kind half of a build: load the artifact from disk,
// compute it (returning ErrCanceled when cancel fires mid-run), and
// persist it.
type job[V any] struct {
	cancel  <-chan struct{}
	load    func() (V, error)
	compute func() (V, error)
	save    func(V) error
}

// newCache returns an empty cache whose counters and gauges are
// registered under cache=kind; its run and cancel counters are the
// seqlearnd_<kind>_runs_total and seqlearnd_<kind>_canceled_total
// families.
func newCache[V any](s *Store, reg *obs.Registry, kind string) *cache[V] {
	c := &cache[V]{
		s:        s,
		lru:      list.New(),
		byFP:     map[string]*list.Element{},
		inflight: map[string]*flight[V]{},
	}
	l := obs.Label{Key: "cache", Value: kind}
	c.hits = reg.Counter("seqlearnd_cache_hits_total", "In-memory LRU hits.", l)
	c.coalesced = reg.Counter("seqlearnd_cache_coalesced_total",
		"Requests that waited on an in-flight run for the same fingerprint.", l)
	c.diskHits = reg.Counter("seqlearnd_cache_disk_hits_total",
		"Artifacts reloaded from the on-disk cache.", l)
	c.peerDiskHits = reg.Counter("seqlearnd_cache_peer_disk_hits_total",
		"Disk reloads of artifacts persisted by another instance sharing the cache dir.", l)
	c.misses = reg.Counter("seqlearnd_cache_misses_total", "Requests that found nothing cached.", l)
	c.evictions = reg.Counter("seqlearnd_cache_evictions_total", "LRU evictions.", l)
	c.runs = reg.Counter("seqlearnd_"+kind+"_runs_total",
		"Runs actually executed (cache misses that went to compute).")
	c.canceled = reg.Counter("seqlearnd_"+kind+"_canceled_total",
		"Runs abandoned mid-flight by their client or deadline.")
	reg.GaugeFunc("seqlearnd_cache_entries", "Artifacts currently in memory.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(c.lru.Len())
		}, l)
	reg.GaugeFunc("seqlearnd_cache_in_flight", "Runs executing right now.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(c.inflight))
		}, l)
	return c
}

// get resolves fp, running at most one build per fingerprint no matter
// how many goroutines ask concurrently. A canceled build returns
// ErrCanceled and is never cached; coalesced waiters whose own cancel has
// not fired take over with a fresh build instead of inheriting the
// abandoner's error.
func (c *cache[V]) get(fp string, j job[V]) (V, Source, error) {
	for {
		v, src, err := c.resolve(fp, j)
		if errors.Is(err, ErrCanceled) && !chanceled(j.cancel) {
			continue
		}
		return v, src, err
	}
}

// resolve is the LRU + singleflight layer for one attempt.
func (c *cache[V]) resolve(fp string, j job[V]) (V, Source, error) {
	s := c.s
	s.mu.Lock()
	if v, ok := c.lookupLocked(fp, true); ok {
		s.mu.Unlock()
		return v, SourceMemory, nil
	}
	var zero V
	if f, ok := c.inflight[fp]; ok {
		c.coalesced.Inc()
		s.mu.Unlock()
		// A coalesced waiter whose own client disconnects must release its
		// compute slot immediately, not ride out the flight owner's run.
		select {
		case <-f.done:
		case <-j.cancel:
			return zero, SourceCoalesced, ErrCanceled
		}
		if f.err != nil {
			return zero, SourceCoalesced, f.err
		}
		return f.v, SourceCoalesced, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[fp] = f
	s.mu.Unlock()

	v, src, err := c.build(fp, j)

	s.mu.Lock()
	delete(c.inflight, fp)
	switch {
	case err != nil:
		if errors.Is(err, ErrCanceled) {
			c.canceled.Inc()
		}
	case src == SourceDisk:
		c.diskHits.Inc()
		if _, self := s.saved.Load(fp); !self {
			c.peerDiskHits.Inc()
		}
		c.insertLocked(fp, v)
	default:
		c.misses.Inc()
		c.runs.Inc()
		c.insertLocked(fp, v)
	}
	s.mu.Unlock()

	f.v, f.err = v, err
	close(f.done)
	return v, src, err
}

// build produces the value for fp outside the store lock: from disk if
// persisted, otherwise by computing it and then persisting, best-effort.
// Disk failures downgrade the store to memory-only (degrade.go) instead of
// failing the request.
func (c *cache[V]) build(fp string, j job[V]) (V, Source, error) {
	s := c.s
	if s.diskAvailable() {
		v, err := j.load()
		if err == nil {
			return v, SourceDisk, nil
		}
		s.noteDiskError(err)
	}
	v, err := j.compute()
	if err != nil {
		return v, SourceLearned, err
	}
	if s.diskAvailable() {
		if err := j.save(v); err != nil {
			s.noteDiskError(err)
		} else {
			s.saved.Store(fp, struct{}{})
		}
	}
	return v, SourceLearned, nil
}

// peek returns the resident value for fp without building it.
func (c *cache[V]) peek(fp string, touch bool) (V, bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.lookupLocked(fp, touch)
}

// lookupLocked returns the resident value for fp. A touching lookup counts
// a memory hit and refreshes the entry's LRU position. Callers hold s.mu.
func (c *cache[V]) lookupLocked(fp string, touch bool) (V, bool) {
	el, ok := c.byFP[fp]
	if !ok {
		var zero V
		return zero, false
	}
	if touch {
		c.lru.MoveToFront(el)
		c.hits.Inc()
	}
	return el.Value.(*cacheEntry[V]).v, true
}

// insertLocked adds the value at the LRU front and evicts from the back
// past MaxEntries. Callers hold s.mu.
func (c *cache[V]) insertLocked(fp string, v V) {
	if el, ok := c.byFP[fp]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry[V]).v = v
		return
	}
	c.byFP[fp] = c.lru.PushFront(&cacheEntry[V]{fp: fp, v: v})
	for c.lru.Len() > c.s.opt.MaxEntries {
		back := c.lru.Back()
		delete(c.byFP, back.Value.(*cacheEntry[V]).fp)
		c.lru.Remove(back)
		c.evictions.Inc()
	}
}

// chanceled polls a cooperative-cancel channel (nil never fires).
func chanceled(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
