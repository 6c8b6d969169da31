// Package store is a content-addressed cache of the two artifacts the
// service layer reuses: learning artifacts (the frozen implication
// snapshot and tied-gate list of one learning run, keyed by Fingerprint:
// the SHA-256 of the circuit's canonical .bench form plus the learning
// options) and test sets (one ATPG run against a learning artifact, keyed
// by ATPGFingerprint). It is the "learn once, reuse everywhere" half of
// the service: the paper computes its implication database in one cheap
// preprocessing pass and amortizes it across every subsequent ATPG query,
// and the store extends that amortization across requests, processes and
// daemon restarts.
//
// Both kinds go through one cache type (cache.go), instantiated twice and
// checked in three layers:
//
//  1. An in-memory LRU of immutable artifacts, shared by any number of
//     concurrent readers without locks.
//  2. Singleflight: N concurrent requests for the same fingerprint block
//     on one run instead of triggering N.
//  3. Optional on-disk persistence (Options.Dir), so a restarted daemon
//     warms from disk instead of re-running (disk.go, atpg_disk.go).
//
// Each kind supplies only its load, compute and save.
package store

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Options configures a Store. The zero value is memory-only with the
// default entry cap.
type Options struct {
	// MaxEntries caps the in-memory LRU (default 64). Evicted artifacts
	// remain on disk when Dir is set.
	MaxEntries int

	// Dir enables on-disk persistence of learned artifacts under the given
	// directory (see disk.go for the layout). Empty disables persistence.
	Dir string

	// FS overrides the filesystem the disk cache talks to (default: the
	// real one). internal/chaos injects faults through this seam.
	FS FS

	// ReprobeInterval bounds how often a degraded (memory-only, see
	// degrade.go) store re-probes the disk to heal itself (default 5s).
	ReprobeInterval time.Duration

	// Metrics is the registry the store's counters and gauges live in, so
	// /v1/stats and /metrics read the same cells and cannot drift. Nil gets
	// a private registry (counters still work, nothing is exported).
	Metrics *obs.Registry
}

func (o *Options) defaults() {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 64
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	if o.ReprobeInterval <= 0 {
		o.ReprobeInterval = 5 * time.Second
	}
}

// Artifact is one cached learning result: everything the ATPG and the
// untestability analyses consume, minus the mutable builder state. An
// artifact is immutable after creation and safe to share across any number
// of concurrent readers.
type Artifact struct {
	Fingerprint string

	// Circuit is the instance the snapshot's node ids refer to. Requests
	// that hit the cache run against this canonical instance rather than
	// their own parse of the same netlist.
	Circuit *netlist.Circuit

	// DB is the frozen implication snapshot.
	DB *imply.Snapshot

	// CombTies and SeqTies are the learned tied gates, sorted by name as
	// learn.Result delivers them.
	CombTies []learn.Tie
	SeqTies  []learn.Tie

	// EquivClasses is the number of verified gate-equivalence classes
	// (persisted in the .ties header, so disk reloads report it too).
	EquivClasses int

	// LearnDuration is the wall-clock cost of the learning run that
	// produced the artifact (zero when reloaded from disk).
	LearnDuration time.Duration
}

// Ties returns the combinational and sequential ties as one list, the form
// the ATPG consumes.
func (a *Artifact) Ties() []learn.Tie {
	out := make([]learn.Tie, 0, len(a.CombTies)+len(a.SeqTies))
	out = append(out, a.CombTies...)
	return append(out, a.SeqTies...)
}

// Source reports where a Learn call found its artifact.
type Source int

// Artifact sources, from cheapest to most expensive.
const (
	SourceMemory    Source = iota // in-memory LRU hit
	SourceCoalesced               // waited on another request's learning run
	SourceDisk                    // reloaded from the on-disk cache
	SourceLearned                 // a fresh learning run executed
)

// String returns the wire name used in service responses.
func (s Source) String() string {
	switch s {
	case SourceMemory:
		return "hit"
	case SourceCoalesced:
		return "coalesced"
	case SourceDisk:
		return "disk"
	default:
		return "miss"
	}
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Entries   int   `json:"entries"`    // artifacts currently in memory
	Hits      int64 `json:"hits"`       // in-memory LRU hits
	Coalesced int64 `json:"coalesced"`  // requests that waited on an in-flight run
	DiskHits  int64 `json:"disk_hits"`  // artifacts reloaded from disk
	Misses    int64 `json:"misses"`     // requests that found nothing cached
	Learns    int64 `json:"learns"`     // learning runs actually executed
	Evictions int64 `json:"evictions"`  // LRU evictions
	DiskFails int64 `json:"disk_fails"` // failed disk reads/writes (misses excluded)
	InFlight  int   `json:"in_flight"`  // learning runs executing right now

	// PeerDiskHits counts disk reloads of artifacts this instance did not
	// write — another daemon sharing the cache dir learned them. The
	// cross-instance amortization signal for fleet deployments.
	PeerDiskHits int64 `json:"peer_disk_hits"`

	// LearnCanceled counts learning runs abandoned mid-flight (client gone
	// or deadline expired); canceled runs are never cached.
	LearnCanceled int64 `json:"learn_canceled"`

	// Degraded reports the disk cache is offline after an I/O failure and
	// the store is serving memory-only (it re-probes periodically and
	// heals itself); Degradations counts how many times it entered that
	// state.
	Degraded     bool  `json:"degraded"`
	Degradations int64 `json:"degradations"`

	// The test-set (ATPG artifact) cache, same shape.
	ATPGEntries      int   `json:"atpg_entries"`
	ATPGHits         int64 `json:"atpg_hits"`
	ATPGCoalesced    int64 `json:"atpg_coalesced"`
	ATPGDiskHits     int64 `json:"atpg_disk_hits"`
	ATPGPeerDiskHits int64 `json:"atpg_peer_disk_hits"`
	ATPGMisses       int64 `json:"atpg_misses"`
	ATPGRuns         int64 `json:"atpg_runs"` // ATPG runs actually executed
	ATPGEvictions    int64 `json:"atpg_evictions"`
	ATPGReuses       int64 `json:"atpg_reuses"`    // runs seeded by another artifact's tests
	ATPGCanceled     int64 `json:"atpg_canceled"`  // runs abandoned mid-flight by their client
	ATPGInFlight     int   `json:"atpg_in_flight"` // ATPG runs executing right now
}

// Store caches learning artifacts and the test sets generated from them,
// by fingerprint. All methods are safe for concurrent use.
type Store struct {
	opt Options
	fs  FS

	// Degradation state (degrade.go): degraded flips on the first disk
	// I/O failure and back off when a re-probe succeeds.
	degraded  atomic.Bool
	probeMu   sync.Mutex
	nextProbe time.Time

	// saved records the fingerprints this instance persisted to disk, so a
	// disk reload can be classified as self (our own artifact, evicted or
	// re-requested) or peer (written by another instance sharing the cache
	// dir — the fleet's cross-instance amortization signal).
	saved sync.Map // fingerprint -> struct{}

	// mu guards both caches' LRU and in-flight state.
	mu    sync.Mutex
	learn *cache[*Artifact]
	atpg  *cache[atpgValue]

	// Store-wide counters; the per-cache ones live in learn and atpg. All
	// of them are cells of the obs registry (Options.Metrics), so
	// /v1/stats reads what /metrics exports and the two cannot drift.
	diskFails, degradations, atpgReuses *obs.Counter
}

// New returns a store. When opt.Dir is set, artifacts built through this
// store are persisted there and future stores (including in later
// processes) warm from it.
func New(opt Options) *Store {
	opt.defaults()
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{opt: opt, fs: opt.FS}
	if opt.Dir != "" {
		s.fs = newCountingFS(s.fs, reg)
	}
	s.learn = newCache[*Artifact](s, reg, "learn")
	s.atpg = newCache[atpgValue](s, reg, "atpg")
	s.atpgReuses = reg.Counter("seqlearnd_atpg_reuses_total",
		"ATPG runs seeded by another artifact's test set.")
	s.diskFails = reg.Counter("seqlearnd_disk_fails_total",
		"Failed disk cache reads/writes (misses excluded).")
	s.degradations = reg.Counter("seqlearnd_degradations_total",
		"Times the store entered the memory-only degraded state.")
	reg.GaugeFunc("seqlearnd_store_degraded",
		"1 while the disk cache is offline and the store serves memory-only.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	return s
}

// Learn resolves the artifact for (c, lopt), running at most one learning
// run per fingerprint no matter how many goroutines ask concurrently. The
// returned Source reports how the artifact was obtained.
//
// lopt.Cancel (like every execution knob) is excluded from the
// fingerprint. A canceled run returns ErrCanceled and is never cached;
// coalesced waiters whose own requests are still live take over with a
// fresh run instead of inheriting the abandoner's error.
func (s *Store) Learn(c *netlist.Circuit, lopt learn.Options) (*Artifact, Source, error) {
	// KeepRows inflates the artifact with Table 1 rows no consumer of the
	// store reads, and is excluded from the fingerprint; force it off so
	// the cached artifact is the same either way.
	lopt.KeepRows = false
	fp := Fingerprint(c, lopt)
	return s.learn.get(fp, job[*Artifact]{
		cancel: lopt.Cancel,
		load:   func() (*Artifact, error) { return s.loadDisk(fp, c) },
		compute: func() (*Artifact, error) {
			lr := learn.Learn(c, lopt)
			if lr.Canceled {
				return nil, ErrCanceled
			}
			return &Artifact{
				Fingerprint:   fp,
				Circuit:       c,
				DB:            lr.DB,
				CombTies:      lr.CombTies,
				SeqTies:       lr.SeqTies,
				EquivClasses:  len(lr.EquivClasses),
				LearnDuration: lr.Stats.Duration,
			}, nil
		},
		save: s.saveDisk,
	})
}

// Cached returns the in-memory learning artifact for a fingerprint, if
// resident — the fleet fast path: a client that already knows a circuit's
// fingerprint sends just the header, and the server answers from memory or
// asks for the body back (428). Disk is deliberately not consulted: the
// on-disk format stores relations by node name and needs the circuit to
// rebuild, which is exactly the upload the fast path exists to skip.
func (s *Store) Cached(fp string) (*Artifact, bool) {
	return s.learn.peek(fp, true)
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, a := s.learn, s.atpg
	return Stats{
		Entries:      l.lru.Len(),
		Hits:         l.hits.Value(),
		Coalesced:    l.coalesced.Value(),
		DiskHits:     l.diskHits.Value(),
		PeerDiskHits: l.peerDiskHits.Value(),
		Misses:       l.misses.Value(),
		Learns:       l.runs.Value(),
		Evictions:    l.evictions.Value(),
		DiskFails:    s.diskFails.Value(),
		InFlight:     len(l.inflight),

		LearnCanceled: l.canceled.Value(),
		Degraded:      s.degraded.Load(),
		Degradations:  s.degradations.Value(),

		ATPGEntries:      a.lru.Len(),
		ATPGHits:         a.hits.Value(),
		ATPGCoalesced:    a.coalesced.Value(),
		ATPGDiskHits:     a.diskHits.Value(),
		ATPGPeerDiskHits: a.peerDiskHits.Value(),
		ATPGMisses:       a.misses.Value(),
		ATPGRuns:         a.runs.Value(),
		ATPGEvictions:    a.evictions.Value(),
		ATPGReuses:       s.atpgReuses.Value(),
		ATPGCanceled:     a.canceled.Value(),
		ATPGInFlight:     len(a.inflight),
	}
}
