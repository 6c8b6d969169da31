package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/atpg"
	"repro/internal/equiv"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// The test-set cache, the store's second cache instance. A full
// test-generation run is content-addressed by (learn fingerprint, canonical
// fault-list digest, result-relevant run options), so a repeat /v1/atpg
// request is a lookup instead of a PODEM rerun — the paper's amortization
// argument extended from the implication database to the test sets it
// enables. When the exact key misses, a cached test set for a *different*
// circuit with a matching primary-input signature can seed the run: the old
// tests are replayed through the packed fault simulator (64 lanes per word
// makes this a few milliseconds) and PODEM targets only the residue — the
// classical incremental regression-ATPG flow.

// ATPGArtifact is one cached test-generation result. Immutable after
// creation; safe to share across concurrent readers.
type ATPGArtifact struct {
	// Fingerprint is the artifact's content address (ATPGFingerprint).
	Fingerprint string

	// LearnFP is the learning artifact the run was generated against
	// (which itself hashes the circuit's canonical form).
	LearnFP string

	// Circuit is the canonical instance the run executed on. Nil for seed
	// artifacts reloaded from disk, which carry only the primary-input
	// signature and the test vectors.
	Circuit *netlist.Circuit

	// PISignature is the primary-input names in declaration order — the
	// compatibility key for incremental reuse: a test set replays onto any
	// circuit with the same signature.
	PISignature []string

	// Result is the full run outcome: tests, per-fault status, counts.
	Result atpg.RunResult
}

// ATPGRequest is one resolved test-generation request against the store.
type ATPGRequest struct {
	// Artifact is the learning artifact the run consumes (Learn resolved
	// it already); the run executes on Artifact.Circuit.
	Artifact *Artifact

	// Faults is the effective target list (nil = the collapsed universe of
	// the circuit). Options.MaxFaults truncation is applied by the store
	// before fingerprinting, so the digest covers exactly what runs.
	Faults []fault.Fault

	// Options is the assembled run configuration. Parallelism and Cancel
	// are per-request execution knobs excluded from the fingerprint;
	// SeedTests must be empty (the store owns seeding via Reuse).
	Options atpg.RunOptions

	// Reuse selects the incremental path on a cache miss: "" disables it,
	// "auto" seeds from the most recently used artifact with a matching PI
	// signature, anything else is an explicit artifact fingerprint (error
	// if unknown). Exact-key hits ignore Reuse — the lookup already won.
	Reuse string
}

// ATPGReuse describes the incremental seeding of one executed run (nil on
// cache hits and unseeded runs).
type ATPGReuse struct {
	Fingerprint   string `json:"fingerprint"`    // the seed artifact
	TestsReplayed int    `json:"tests_replayed"` // seed tests fault-simulated
	TestsKept     int    `json:"tests_kept"`     // seed tests that detected something
	SeedDetected  int    `json:"seed_detected"`  // faults the replay detected
	Diff          string `json:"diff,omitempty"` // first structural difference vs the seed circuit
}

// atpgValue is what the test-set cache holds: the artifact, paired with
// the seeding record of the run that produced it. Memory hits drop the
// record (it describes someone else's run); coalesced waiters share it.
type atpgValue struct {
	art   *ATPGArtifact
	reuse *ATPGReuse
}

// ATPGFingerprint returns the content address of a test-generation run:
// the learning fingerprint (circuit + learning options), a digest of the
// effective fault list (by node name, so structurally identical parses
// share it), and the result-relevant run options. Parallelism is excluded
// (the sharded driver is bit-identical for every worker count), as are
// Cancel and SeedTests (execution knobs, not result definitions — a seeded
// run caches under the same key an unseeded run would, as an equally valid
// test-set artifact for that request; its seed counts are zeroed before
// caching and reported only through the producing request's ATPGReuse, so
// the stored result reads as a pure function of the key).
func ATPGFingerprint(learnFP string, c *netlist.Circuit, faults []fault.Fault, ropt atpg.RunOptions) string {
	a := ropt.ATPG.Normalized()
	// cross=false is hashed as literal text: PODEM applies no cross-frame
	// relation, and the literal keeps every earlier content address.
	b := fmt.Appendf(nil, "atpg|learn=%s|mode=%d bt=%d win=%v fill=%d cross=false compact=%t",
		learnFP, a.Mode, a.BacktrackLimit, a.Windows, a.FillSeed, ropt.CompactTests)
	for _, f := range ropt.PreUntestable {
		b = appendFault(append(b, "|pre="...), c, f)
	}
	b = append(b, "|faults="...)
	b = strconv.AppendInt(b, int64(len(faults)), 10)
	for _, f := range faults {
		b = appendFault(append(b, '|'), c, f)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendFault appends "name/stuck", e.g. "G9/1".
func appendFault(b []byte, c *netlist.Circuit, f fault.Fault) []byte {
	b = append(b, c.NameOf(f.Node)...)
	b = append(b, '/')
	return append(b, f.Stuck.String()...)
}

// PISignature returns the circuit's primary-input names in declaration
// order — the reuse-compatibility key.
func PISignature(c *netlist.Circuit) []string {
	out := make([]string, len(c.PIs))
	for i, id := range c.PIs {
		out[i] = c.NameOf(id)
	}
	return out
}

// ValidFingerprint reports whether s is a well-formed content address: 64
// lowercase hex digits. Request-supplied fingerprints (reuse=,
// X-Circuit-Fingerprint) must pass it before they reach lookups, are
// sliced for error messages or are joined into a disk path.
func ValidFingerprint(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ATPG resolves the test-set artifact for the request: in-memory LRU, then
// singleflight coalescing, then disk, then an actual run — seeded by a
// reusable artifact when the request asks for one. The returned Source
// reports how the artifact was obtained; the ATPGReuse is non-nil exactly
// when a run executed with seeding.
func (s *Store) ATPG(req ATPGRequest) (*ATPGArtifact, Source, *ATPGReuse, error) {
	c := req.Artifact.Circuit
	req.Options.Faults = req.Faults
	faults := atpg.TargetFaults(c, req.Options)
	req.Options.Faults = faults
	req.Options.MaxFaults = 0
	fp := ATPGFingerprint(req.Artifact.Fingerprint, c, faults, req.Options)

	// Resolve an explicit seed up front so an unknown fingerprint fails the
	// request instead of silently running from scratch.
	var seed *ATPGArtifact
	if req.Reuse != "" && req.Reuse != "auto" {
		if !ValidFingerprint(req.Reuse) {
			return nil, SourceLearned, nil, fmt.Errorf(
				"store: malformed reuse fingerprint %q: want 64 lowercase hex digits or \"auto\"", req.Reuse)
		}
		var err error
		if seed, err = s.lookupSeed(req.Reuse, c); err != nil {
			return nil, SourceLearned, nil, err
		}
		if !slices.Equal(seed.PISignature, PISignature(c)) {
			return nil, SourceLearned, nil, fmt.Errorf(
				"store: reuse %s: primary-input signature mismatch (%d PIs vs %d)",
				req.Reuse[:12], len(seed.PISignature), len(c.PIs))
		}
	}

	v, src, err := s.atpg.get(fp, job[atpgValue]{
		cancel: req.Options.Cancel,
		load: func() (atpgValue, error) {
			art, err := s.loadDiskATPG(fp, c)
			return atpgValue{art: art}, err
		},
		compute: func() (atpgValue, error) { return s.runATPG(fp, req, seed) },
		save:    func(v atpgValue) error { return s.saveDiskATPG(v.art) },
	})
	if src == SourceMemory {
		v.reuse = nil
	}
	return v.art, src, v.reuse, err
}

// lookupSeed finds a seed artifact by fingerprint: memory first, then disk
// (tests + PI signature only — the seed's circuit need not be resident).
func (s *Store) lookupSeed(fp string, c *netlist.Circuit) (*ATPGArtifact, error) {
	if v, ok := s.atpg.peek(fp, false); ok {
		return v.art, nil
	}
	if s.diskAvailable() {
		art, err := s.loadDiskATPG(fp, nil)
		if err == nil {
			return art, nil
		}
		s.noteDiskError(err)
	}
	return nil, fmt.Errorf("store: unknown reuse fingerprint %s", fp)
}

// autoSeed picks the most recently used artifact whose PI signature matches
// the circuit — the "last artifact" heuristic for reuse=auto. Callers hold
// no lock.
func (s *Store) autoSeed(sig []string) *ATPGArtifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	for el := s.atpg.lru.Front(); el != nil; el = el.Next() {
		if art := el.Value.(*cacheEntry[atpgValue]).v.art; slices.Equal(art.PISignature, sig) {
			return art
		}
	}
	return nil
}

// runATPG executes the generator for a test-set cache miss, seeded when
// reuse found a donor.
func (s *Store) runATPG(fp string, req ATPGRequest, seed *ATPGArtifact) (atpgValue, error) {
	c := req.Artifact.Circuit
	sig := PISignature(c)
	if seed == nil && req.Reuse == "auto" {
		seed = s.autoSeed(sig)
	}
	ropt := req.Options
	var reuse *ATPGReuse
	if seed != nil {
		ropt.SeedTests = seed.Result.Tests
		reuse = &ATPGReuse{
			Fingerprint:   seed.Fingerprint,
			TestsReplayed: len(seed.Result.Tests),
		}
		if seed.Circuit != nil {
			if err := equiv.Structural(seed.Circuit, c); err != nil {
				reuse.Diff = err.Error()
			} else {
				reuse.Diff = "structurally identical"
			}
		}
	}

	res := atpg.Run(c, ropt)
	if res.Canceled {
		return atpgValue{}, ErrCanceled
	}
	if reuse != nil {
		s.atpgReuses.Inc()
		// Seeding is how this run happened, not part of what the key
		// defines, so the seed counts live in the per-request ATPGReuse and
		// are zeroed in the cached result: a later exact-key hit that never
		// asked for reuse must not report someone else's seeding.
		reuse.TestsKept = res.SeedTestsKept
		reuse.SeedDetected = res.SeedDetected
		res.SeedTestsKept, res.SeedDetected = 0, 0
	}
	art := &ATPGArtifact{
		Fingerprint: fp,
		LearnFP:     req.Artifact.Fingerprint,
		Circuit:     c,
		PISignature: sig,
		Result:      res,
	}
	return atpgValue{art: art, reuse: reuse}, nil
}
