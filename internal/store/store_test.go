package store

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/gen"
	"repro/internal/learn"
)

func TestFingerprintStability(t *testing.T) {
	c1 := circuits.Figure2()
	c2 := circuits.Figure2()
	if Fingerprint(c1, learn.Options{}) != Fingerprint(c2, learn.Options{}) {
		t.Fatal("identical circuits fingerprint differently")
	}
	// Parallelism and KeepRows cannot change the learned result and must
	// not fragment the cache; explicit defaults hash like the zero value.
	base := Fingerprint(c1, learn.Options{})
	for _, opt := range []learn.Options{
		{Parallelism: 7},
		{KeepRows: true},
		{MaxFrames: 50},
	} {
		if Fingerprint(c1, opt) != base {
			t.Errorf("options %+v changed the fingerprint", opt)
		}
	}
	// Result-relevant options must fragment it.
	for _, opt := range []learn.Options{
		{MaxFrames: 3},
		{SingleNodeOnly: true},
		{SkipComb: true},
		{DisableTies: true},
	} {
		if Fingerprint(c1, opt) == base {
			t.Errorf("options %+v did not change the fingerprint", opt)
		}
	}
	if Fingerprint(circuits.Figure1(), learn.Options{}) == base {
		t.Fatal("different circuits share a fingerprint")
	}
}

func TestFingerprintIgnoresCircuitName(t *testing.T) {
	// bench.Write embeds the display name only in the header comment, which
	// the fingerprint strips: renamed but otherwise identical circuits must
	// share an artifact.
	a := circuits.Figure2()
	b := circuits.Figure2()
	b.Name = "renamed"
	if Fingerprint(a, learn.Options{}) != Fingerprint(b, learn.Options{}) {
		t.Fatal("circuit display name leaked into the fingerprint")
	}
}

func TestLearnCachesAndCounts(t *testing.T) {
	s := New(Options{})
	c := circuits.Figure2()

	art, src, err := s.Learn(c, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned {
		t.Fatalf("first request source = %v, want miss", src)
	}
	if art.DB.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	art2, src2, err := s.Learn(circuits.Figure2(), learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceMemory {
		t.Fatalf("second request source = %v, want hit", src2)
	}
	if art2 != art {
		t.Fatal("cache hit returned a different artifact")
	}
	st := s.Stats()
	if st.Learns != 1 || st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := New(Options{MaxEntries: 2})
	c := circuits.Figure2()
	opts := []learn.Options{{}, {SkipComb: true}, {SingleNodeOnly: true}}
	for _, o := range opts {
		if _, _, err := s.Learn(c, o); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	// The first (evicted) configuration must re-learn; the last must hit.
	if _, src, _ := s.Learn(c, opts[2]); src != SourceMemory {
		t.Fatalf("most recent entry source = %v, want hit", src)
	}
	if _, src, _ := s.Learn(c, opts[0]); src != SourceLearned {
		t.Fatalf("evicted entry source = %v, want miss", src)
	}
}

// TestSingleflight fires many concurrent requests for one circuit and
// asserts exactly one learning run executed, with every caller handed the
// same artifact. Run under -race in CI.
func TestSingleflight(t *testing.T) {
	const callers = 48
	s := New(Options{})
	var wg sync.WaitGroup
	arts := make([]*Artifact, callers)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			// Each goroutine parses/builds its own circuit instance, like
			// independent HTTP requests would.
			art, _, err := s.Learn(gen.MustBuild("s382"), learn.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			arts[i] = art
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Learns != 1 {
		t.Fatalf("learns = %d, want exactly 1 (stats %+v)", st.Learns, st)
	}
	if st.Hits+st.Coalesced != callers-1 {
		t.Fatalf("hits+coalesced = %d, want %d (stats %+v)", st.Hits+st.Coalesced, callers-1, st)
	}
	for i, a := range arts {
		if a != arts[0] {
			t.Fatalf("caller %d got a different artifact", i)
		}
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c := gen.MustBuild("s953")

	s1 := New(Options{Dir: dir})
	art1, src, err := s1.Learn(c, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned {
		t.Fatalf("source = %v, want miss", src)
	}
	if len(art1.SeqTies) == 0 {
		t.Fatal("expected sequential ties on s953")
	}

	// A fresh store (a restarted daemon) warms from disk, not by
	// re-learning, and the reloaded artifact is relation-for-relation and
	// tie-for-tie identical.
	s2 := New(Options{Dir: dir})
	art2, src2, err := s2.Learn(gen.MustBuild("s953"), learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceDisk {
		t.Fatalf("restarted source = %v, want disk", src2)
	}
	if s2.Stats().Learns != 0 {
		t.Fatal("restarted store re-learned despite the disk cache")
	}
	w1, w2 := art1.DB.Relations(), art2.DB.Relations()
	if len(w1) != len(w2) {
		t.Fatalf("relation count changed across disk: %d -> %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("relation %d changed across disk", i)
		}
	}
	t1, t2 := art1.Ties(), art2.Ties()
	if len(t1) != len(t2) {
		t.Fatalf("tie count changed across disk: %d -> %d", len(t1), len(t2))
	}
	for i := range t1 {
		if art1.Circuit.NameOf(t1[i].Node) != art2.Circuit.NameOf(t2[i].Node) ||
			t1[i].Val != t2[i].Val || t1[i].Frame != t2[i].Frame {
			t.Fatalf("tie %d changed across disk: %+v -> %+v", i, t1[i], t2[i])
		}
	}
}

func TestDiskCorruptionFallsBackToLearning(t *testing.T) {
	dir := t.TempDir()
	c := circuits.Figure2()
	s1 := New(Options{Dir: dir})
	art, _, err := s1.Learn(c, learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	implyPath := s1.diskPath(art.Fingerprint, ".imply")
	if err := os.WriteFile(implyPath, []byte("not a relation line\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{Dir: dir})
	art2, src, err := s2.Learn(circuits.Figure2(), learn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceLearned {
		t.Fatalf("source = %v, want re-learn on corrupt disk entry", src)
	}
	if art2.DB.Len() != art.DB.Len() {
		t.Fatal("re-learned artifact differs")
	}
	// The re-learn rewrote the corrupt entry.
	data, err := os.ReadFile(implyPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(string(data), "not a relation") {
		t.Fatal("corrupt disk entry was not repaired")
	}
	if _, err := os.Stat(filepath.Join(dir, art.Fingerprint[:2])); err != nil {
		t.Fatal("shard directory missing")
	}
}
