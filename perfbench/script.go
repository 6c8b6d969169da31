package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// The service-mix script: one writer connection sends every request that
// changes the daemon's cache state (cold learn+ATPG runs and disk reloads
// of evicted artifacts) plus the refreshes that keep the hot artifacts
// resident; the reader connections send only hits on the hot artifacts.
// Readers can only make hot entries more recent, never less, so the LRU
// victims — and with them every cache outcome and store counter — are the
// same whatever order the connections' requests interleave in. The model
// below replays the writer's stream to predict them.

// Keys of the service-mix circuits.
const (
	keyBig  = 0 // the large circuit, for body-path hits
	keyHot  = 1 // the hot circuit, for fingerprint hits and test-set hits
	keyCold = 2 // first cold variant; cold variant j is keyCold+j
)

// request is one scripted service request.
type request struct {
	class     string // one of serviceClasses
	key       int
	wantCache string // expected learn artifact source: hit, disk or miss
	wantTests string // expected test-set source, ATPG requests only
}

// storeCounts are the per-pass store and server counters the script
// predicts exactly; the learn and test-set caches are summed.
type storeCounts struct {
	MemHits, DiskHits, Misses, Coalesced, Evictions, FastMisses int64
}

// script is a pass's requests, one list per connection; conns[0] is the
// writer.
type script struct {
	conns [][]request
	want  storeCounts
}

// scriptShape sizes a script. The reader classes are totals per pass,
// dealt round-robin over the readers, so a pass does the same work
// whatever the connection count.
type scriptShape struct {
	conns     int // connections, at least 1
	capacity  int // store entries per cache (Store.MaxEntries), at least 3
	colds     int // cold variants
	reloads   int // disk reloads of evicted variants
	body      int // body-path hits on the big circuit
	learnFast int // fingerprint hits on the hot circuit
	atpgFast  int // test-set hits on the hot circuit
}

// lru is the model of one store cache: keys oldest first.
type lru struct {
	keys      []int
	capacity  int
	evictions int64
}

func (l *lru) has(k int) bool { return slices.Contains(l.keys, k) }

// touch moves a resident key to the newest position.
func (l *lru) touch(k int) {
	i := slices.Index(l.keys, k)
	l.keys = append(slices.Delete(l.keys, i, i+1), k)
}

// victim is the key the next insertion evicts, or -1.
func (l *lru) victim() int {
	if len(l.keys) < l.capacity {
		return -1
	}
	return l.keys[0]
}

func (l *lru) insert(k int) {
	l.keys = append(l.keys, k)
	for len(l.keys) > l.capacity {
		l.keys = l.keys[1:]
		l.evictions++
	}
}

// model tracks what the daemon holds as the writer's stream replays.
type model struct {
	learn, atpg lru
	onDisk      map[int]bool // learn artifacts persisted
	want        storeCounts
	out         []request
}

// newModel is the state after priming: the big circuit was loaded, then
// the hot circuit and its test set.
func newModel(capacity int) *model {
	m := &model{
		learn:  lru{capacity: capacity},
		atpg:   lru{capacity: capacity},
		onDisk: map[int]bool{keyBig: true, keyHot: true},
	}
	m.learn.insert(keyBig)
	m.learn.insert(keyHot)
	m.atpg.insert(keyHot)
	return m
}

// hit records a request answered from memory.
func (m *model) hit(class string) {
	r := request{class: class, wantCache: "hit"}
	switch class {
	case "learn-body":
		r.key = keyBig
		m.learn.touch(keyBig)
	case "learn-fast":
		r.key = keyHot
		m.learn.touch(keyHot)
	case "atpg-fast":
		r.key = keyHot
		r.wantTests = "hit"
		m.learn.touch(keyHot)
		m.atpg.touch(keyHot)
		m.want.MemHits++
	}
	m.want.MemHits++
	m.out = append(m.out, r)
}

// protect refreshes hot entries that the next insertion would evict.
func (m *model) protect(atpgToo bool) {
	for {
		switch {
		case atpgToo && m.atpg.victim() == keyHot:
			m.hit("atpg-fast")
		case m.learn.victim() == keyBig:
			m.hit("learn-body")
		case m.learn.victim() == keyHot:
			m.hit("learn-fast")
		default:
			return
		}
	}
}

// cold records a cold ATPG request on a new variant: a learning run and a
// test-generation run, both persisted.
func (m *model) cold(k int) {
	m.protect(true)
	m.learn.insert(k)
	m.atpg.insert(k)
	m.onDisk[k] = true
	m.want.Misses += 2
	m.out = append(m.out, request{class: "cold", key: k, wantCache: "miss", wantTests: "miss"})
}

// reload records a learn request for an evicted variant: the writer knows
// its fingerprint, so the daemon first answers 428 and the body path then
// reloads the artifact from disk.
func (m *model) reload(k int) {
	m.protect(false)
	m.learn.insert(k)
	m.want.DiskHits++
	m.want.FastMisses++
	m.out = append(m.out, request{class: "reload", key: k, wantCache: "disk"})
}

// evicted lists the persisted variants no longer in memory.
func (m *model) evicted() []int {
	var ks []int
	for k := keyCold; m.onDisk[k]; k++ {
		if !m.learn.has(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// makeScript generates the seeded script for a shape.
func makeScript(seed uint64, sh scriptShape) (*script, error) {
	if sh.conns < 1 || sh.capacity < 3 || sh.colds < sh.capacity {
		return nil, fmt.Errorf("script shape %+v: need conns >= 1, capacity >= 3, colds >= capacity", sh)
	}
	rng := rand.New(rand.NewPCG(seed, nameHash("service-mix")))
	m := newModel(sh.capacity)

	// The writer: cold runs fill the cache until it evicts, then cold runs
	// and reloads of evicted variants follow in seeded order.
	next, reloads := 0, sh.reloads
	for next < sh.colds || reloads > 0 {
		ev := m.evicted()
		colds := sh.colds - next
		if len(ev) > 0 && reloads > 0 && rng.IntN(colds+reloads) >= colds {
			m.reload(ev[rng.IntN(len(ev))])
			reloads--
			continue
		}
		if colds == 0 {
			return nil, fmt.Errorf("script shape %+v: no evicted variant left to reload", sh)
		}
		m.cold(keyCold + next)
		next++
	}
	sc := &script{conns: make([][]request, sh.conns)}
	sc.conns[0] = m.out
	sc.want = m.want
	sc.want.Evictions = m.learn.evictions + m.atpg.evictions

	// The readers: hits on the hot entries only, dealt round-robin and
	// shuffled per reader. A lone connection interleaves them into the
	// writer's stream.
	readers := make([][]request, max(1, sh.conns-1))
	dealt := 0
	add := func(class string, n int) {
		for range n {
			req := request{class: class, key: keyHot, wantCache: "hit"}
			switch class {
			case "learn-body":
				req.key = keyBig
			case "atpg-fast":
				req.wantTests = "hit"
				sc.want.MemHits++
			}
			sc.want.MemHits++
			r := dealt % len(readers)
			readers[r] = append(readers[r], req)
			dealt++
		}
	}
	add("learn-body", sh.body)
	add("learn-fast", sh.learnFast)
	add("atpg-fast", sh.atpgFast)
	for r, rs := range readers {
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		if sh.conns == 1 {
			sc.conns[0] = interleave(sc.conns[0], rs, rng)
		} else {
			sc.conns[1+r] = rs
		}
	}
	return sc, nil
}

// interleave merges b into a at seeded positions, keeping each list's
// order.
func interleave(a, b []request, rng *rand.Rand) []request {
	out := make([]request, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && rng.IntN(len(a)+len(b)) < len(a)) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}
