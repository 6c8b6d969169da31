package store

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
)

// atpgOpts assembles the forbidden-mode run configuration every test here
// shares, against an already-resolved learning artifact.
func atpgOpts(art *Artifact) atpg.RunOptions {
	return atpg.RunOptions{
		Parallelism: 1,
		ATPG: atpg.Options{
			BacktrackLimit: 1000,
			Windows:        []int{1, 2, 4, 8},
			Mode:           atpg.ModeForbidden,
			DB:             art.DB,
			Ties:           art.Ties(),
			FillSeed:       0x7e57,
		},
	}
}

func mustLearn(t *testing.T, s *Store, c *netlist.Circuit) *Artifact {
	t.Helper()
	art, _, err := s.Learn(c, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// mutated returns the circuit with its first AND gate rewritten to a NAND —
// a one-gate revision whose previous test set is still mostly valid.
func mutated(t *testing.T, c *netlist.Circuit) *netlist.Circuit {
	t.Helper()
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(buf.String(), " = AND(", " = NAND(", 1)
	if text == buf.String() {
		t.Fatalf("circuit %s has no AND gate to mutate", c.Name)
	}
	mc, err := bench.Parse(c.Name+"-eco", strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestATPGFingerprintOptions(t *testing.T) {
	s := New(Options{})
	c := circuits.Figure2()
	art := mustLearn(t, s, c)
	faults, _ := fault.Collapse(c)
	base := ATPGFingerprint(art.Fingerprint, c, faults, atpgOpts(art))

	// Execution knobs must not fragment the cache.
	done := make(chan struct{})
	for _, mod := range []func(*atpg.RunOptions){
		func(o *atpg.RunOptions) { o.Parallelism = 8 },
		func(o *atpg.RunOptions) { o.Cancel = done },
	} {
		opt := atpgOpts(art)
		mod(&opt)
		if ATPGFingerprint(art.Fingerprint, c, faults, opt) != base {
			t.Error("an execution knob changed the ATPG fingerprint")
		}
	}
	// Result-relevant options must.
	for _, mod := range []func(*atpg.RunOptions){
		func(o *atpg.RunOptions) { o.ATPG.BacktrackLimit = 5 },
		func(o *atpg.RunOptions) { o.ATPG.Mode = atpg.ModeNoLearning },
		func(o *atpg.RunOptions) { o.CompactTests = true },
		func(o *atpg.RunOptions) { o.ATPG.FillSeed = 1 },
	} {
		opt := atpgOpts(art)
		mod(&opt)
		if ATPGFingerprint(art.Fingerprint, c, faults, opt) == base {
			t.Error("a result-relevant option did not change the ATPG fingerprint")
		}
	}
	// A different fault list must.
	if ATPGFingerprint(art.Fingerprint, c, faults[:len(faults)-1], atpgOpts(art)) == base {
		t.Error("a truncated fault list did not change the ATPG fingerprint")
	}
}

func TestATPGCacheHitAndStats(t *testing.T) {
	s := New(Options{})
	c := circuits.Figure2()
	art := mustLearn(t, s, c)

	a1, src, reuse, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned || reuse != nil {
		t.Fatalf("first request: src=%v reuse=%v", src, reuse)
	}
	if a1.Result.Detected+a1.Result.Untestable+a1.Result.Aborted != a1.Result.Total {
		t.Fatalf("classification does not cover the fault list: %+v", a1.Result)
	}

	a2, src2, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceMemory || a2 != a1 {
		t.Fatalf("repeat request: src=%v same-artifact=%t", src2, a2 == a1)
	}

	st := s.Stats()
	if st.ATPGRuns != 1 || st.ATPGMisses != 1 || st.ATPGHits != 1 || st.ATPGEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestATPGCanceledRunNotCached(t *testing.T) {
	s := New(Options{})
	c := circuits.Figure2()
	art := mustLearn(t, s, c)

	done := make(chan struct{})
	close(done)
	opt := atpgOpts(art)
	opt.Cancel = done
	if _, _, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: opt}); err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	st := s.Stats()
	if st.ATPGCanceled != 1 || st.ATPGEntries != 0 || st.ATPGRuns != 0 {
		t.Fatalf("stats after canceled run = %+v", st)
	}

	// The next (live) request runs fresh and caches normally.
	_, src, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned {
		t.Fatalf("post-cancel source = %v, want miss", src)
	}
}

func TestATPGDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := gen.MustBuild("s382")

	s1 := New(Options{Dir: dir})
	art1 := mustLearn(t, s1, c)
	a1, _, _, err := s1.ATPG(ATPGRequest{Artifact: art1, Options: atpgOpts(art1)})
	if err != nil {
		t.Fatal(err)
	}

	// A restarted daemon warms the test set from disk, not by re-running.
	s2 := New(Options{Dir: dir})
	art2 := mustLearn(t, s2, gen.MustBuild("s382"))
	a2, src, _, err := s2.ATPG(ATPGRequest{Artifact: art2, Options: atpgOpts(art2)})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceDisk {
		t.Fatalf("restarted source = %v, want disk", src)
	}
	if s2.Stats().ATPGRuns != 0 {
		t.Fatal("restarted store re-ran ATPG despite the disk artifact")
	}

	r1, r2 := &a1.Result, &a2.Result
	if r1.Total != r2.Total || r1.Detected != r2.Detected ||
		r1.Untestable != r2.Untestable || r1.Aborted != r2.Aborted ||
		r1.Backtracks != r2.Backtracks || len(r1.Tests) != len(r2.Tests) {
		t.Fatalf("counts changed across disk: %+v vs %+v", r1, r2)
	}
	for ti := range r1.Tests {
		if a1.Circuit.NameOf(r1.TestTargets[ti].Node) != a2.Circuit.NameOf(r2.TestTargets[ti].Node) ||
			r1.TestTargets[ti].Stuck != r2.TestTargets[ti].Stuck {
			t.Fatalf("test %d target changed across disk", ti)
		}
		if len(r1.Tests[ti]) != len(r2.Tests[ti]) {
			t.Fatalf("test %d frame count changed across disk", ti)
		}
		for fr := range r1.Tests[ti] {
			for i := range r1.Tests[ti][fr] {
				if r1.Tests[ti][fr][i] != r2.Tests[ti][fr][i] {
					t.Fatalf("test %d frame %d bit %d changed across disk", ti, fr, i)
				}
			}
		}
	}
	for i := range r1.Faults {
		if r1.Status[i] != r2.Status[i] ||
			a1.Circuit.NameOf(r1.Faults[i].Node) != a2.Circuit.NameOf(r2.Faults[i].Node) {
			t.Fatalf("fault %d changed across disk", i)
		}
	}
}

func TestATPGDiskCorruptionFallsBackToRunning(t *testing.T) {
	dir := t.TempDir()
	c := circuits.Figure2()
	s1 := New(Options{Dir: dir})
	art := mustLearn(t, s1, c)
	a1, _, _, err := s1.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}

	// Truncate the artifact mid-file; the restarted store must re-run, then
	// repair the entry.
	path := s1.diskPath(a1.Fingerprint, ".tests")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Dir: dir})
	art2 := mustLearn(t, s2, circuits.Figure2())
	a2, src, _, err := s2.ATPG(ATPGRequest{Artifact: art2, Options: atpgOpts(art2)})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned {
		t.Fatalf("source = %v, want re-run on corrupt disk artifact", src)
	}
	if a2.Result.Detected != a1.Result.Detected {
		t.Fatal("re-run artifact differs")
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired) != len(data) {
		t.Fatalf("corrupt artifact not rewritten: %d bytes, want %d", len(repaired), len(data))
	}
}

func TestOrphanedTiesSwept(t *testing.T) {
	dir := t.TempDir()
	c := circuits.Figure2()
	s1 := New(Options{Dir: dir})
	art := mustLearn(t, s1, c)

	// Simulate a writer that crashed between the .ties and .imply renames.
	implyPath, tiesPath := s1.diskPath(art.Fingerprint, ".imply"), s1.diskPath(art.Fingerprint, ".ties")
	if err := os.Remove(implyPath); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tiesPath); err != nil {
		t.Fatal("precondition: .ties missing")
	}

	s2 := New(Options{Dir: dir})
	if _, src, err := s2.Learn(circuits.Figure2(), learn.Options{}); err != nil || src != SourceLearned {
		t.Fatalf("src=%v err=%v, want re-learn on orphaned .ties", src, err)
	}
	// The re-learn rewrote both files; crucially the load attempt swept the
	// orphan before re-learning, so at no point did a half-artifact persist.
	if _, err := os.Stat(implyPath); err != nil {
		t.Fatal(".imply not rewritten")
	}
	if _, err := os.Stat(tiesPath); err != nil {
		t.Fatal(".ties not rewritten")
	}
}

func TestATPGIncrementalReuse(t *testing.T) {
	s := New(Options{})
	c := gen.MustBuild("s382")
	art := mustLearn(t, s, c)
	seedArt, _, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}

	mc := mutated(t, c)
	mart := mustLearn(t, s, mc)

	// From scratch: the full residual fault list goes through PODEM.
	scratch, _, _, err := s.ATPG(ATPGRequest{Artifact: mart, Options: atpgOpts(mart)})
	if err != nil {
		t.Fatal(err)
	}

	// With reuse=auto the store must find the base circuit's artifact (the
	// PI signatures match), replay its tests and search only the residue.
	// The exact key already holds scratch's artifact, so force a fresh
	// store for the seeded run.
	s2 := New(Options{})
	art2 := mustLearn(t, s2, c)
	if _, _, _, err := s2.ATPG(ATPGRequest{Artifact: art2, Options: atpgOpts(art2)}); err != nil {
		t.Fatal(err)
	}
	mart2 := mustLearn(t, s2, mutated(t, c))
	inc, src, reuse, err := s2.ATPG(ATPGRequest{Artifact: mart2, Options: atpgOpts(mart2), Reuse: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned || reuse == nil {
		t.Fatalf("incremental run: src=%v reuse=%v", src, reuse)
	}
	if reuse.Fingerprint != seedArt.Fingerprint {
		t.Fatalf("reuse seed = %s, want the base artifact %s", reuse.Fingerprint[:12], seedArt.Fingerprint[:12])
	}
	if reuse.SeedDetected == 0 || reuse.TestsKept == 0 {
		t.Fatalf("seed replay detected nothing: %+v", reuse)
	}
	if reuse.Diff == "" || reuse.Diff == "structurally identical" {
		t.Fatalf("reuse diff did not report the mutation: %q", reuse.Diff)
	}

	// The cached artifact must read as a pure function of its key: seeding
	// provenance lives in the returned ATPGReuse, not in the result a later
	// exact-key hit would serve to a client that never asked for reuse.
	if inc.Result.SeedTestsKept != 0 || inc.Result.SeedDetected != 0 {
		t.Fatalf("cached artifact leaks seeding provenance: kept=%d detected=%d",
			inc.Result.SeedTestsKept, inc.Result.SeedDetected)
	}

	ir, sr := &inc.Result, &scratch.Result
	if ir.PodemTargets >= sr.PodemTargets {
		t.Fatalf("podem targets = %d with reuse, %d from scratch — reuse saved no search",
			ir.PodemTargets, sr.PodemTargets)
	}
	if ir.Detected+ir.Untestable+ir.Aborted != ir.Total {
		t.Fatalf("incremental classification does not cover the fault list: %+v", ir)
	}
	if ir.Total != sr.Total {
		t.Fatalf("fault universes differ: %d vs %d", ir.Total, sr.Total)
	}
	if ir.Detected < sr.Detected {
		t.Fatalf("incremental coverage dropped: %d < %d detected", ir.Detected, sr.Detected)
	}
	if s2.Stats().ATPGReuses != 1 {
		t.Fatalf("stats = %+v", s2.Stats())
	}
}

// TestATPGMalformedReuse feeds request-supplied reuse values that are not
// well-formed fingerprints: they must fail cleanly before any slicing or
// disk-path construction (a short value used to panic at fp[:2], and a
// traversal value was joined into the cache directory path).
func TestATPGMalformedReuse(t *testing.T) {
	s := New(Options{Dir: t.TempDir()})
	c := circuits.Figure2()
	art := mustLearn(t, s, c)
	for _, bad := range []string{
		"a",
		"../../../etc/passwd",
		strings.Repeat("F", 64), // uppercase
		strings.Repeat("g", 64), // non-hex
		strings.Repeat("a", 63), // short
		strings.Repeat("a", 65), // long
	} {
		_, _, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art), Reuse: bad})
		if err == nil || !strings.Contains(err.Error(), "malformed reuse fingerprint") {
			t.Errorf("reuse %q: err = %v, want malformed-fingerprint error", bad, err)
		}
	}
	if s.Stats().ATPGRuns != 0 {
		t.Fatal("a malformed reuse value triggered a run")
	}
}

func TestATPGExplicitReuse(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Dir: dir})
	c := gen.MustBuild("s382")
	art := mustLearn(t, s, c)
	seedArt, _, _, err := s.ATPG(ATPGRequest{Artifact: art, Options: atpgOpts(art)})
	if err != nil {
		t.Fatal(err)
	}

	// An unknown fingerprint is a request error, not a silent scratch run.
	mart := mustLearn(t, s, mutated(t, c))
	if _, _, _, err := s.ATPG(ATPGRequest{Artifact: mart, Options: atpgOpts(mart),
		Reuse: strings.Repeat("f", 64)}); err == nil {
		t.Fatal("unknown reuse fingerprint accepted")
	}

	// An explicit fingerprint resolves even after a restart drops the LRU:
	// the seed loads from disk (tests + signature only).
	s2 := New(Options{Dir: dir})
	mart2 := mustLearn(t, s2, mutated(t, c))
	_, _, reuse, err := s2.ATPG(ATPGRequest{Artifact: mart2, Options: atpgOpts(mart2),
		Reuse: seedArt.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	if reuse == nil || reuse.Fingerprint != seedArt.Fingerprint || reuse.SeedDetected == 0 {
		t.Fatalf("disk-loaded seed not used: %+v", reuse)
	}
}
