package store

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/netlist"
)

// updateFingerprints rewrites testdata/fingerprints.txt:
//
//	go test ./internal/store -run TestFingerprintsPinned -update-fingerprints
//
// The file pins the content addresses every cache and on-disk file name
// depends on. A change to the canonical .bench form or to the hashed
// option strings orphans every cache directory written before it, so
// regenerate only for a change meant to do that.
var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite testdata/fingerprints.txt")

const fingerprintsPath = "testdata/fingerprints.txt"

// pinnedFingerprints computes every content address the golden file pins,
// one "key fingerprint" line each, in a fixed order: Fingerprint of the
// two paper figures and every suite circuit up to 10k gates under six
// learning option sets, and ATPGFingerprint of s382 and s953 under the
// atpg-campaign benchmark's run options (with and without a
// pre-untestable list).
func pinnedFingerprints() []string {
	circs := []*netlist.Circuit{circuits.Figure1(), circuits.Figure2()}
	for _, name := range gen.SuiteNames() {
		if e, _ := gen.Lookup(name); e.Gates <= 10000 {
			circs = append(circs, gen.Build(e))
		}
	}
	lopts := []struct {
		name string
		opt  learn.Options
	}{
		{"default", learn.Options{}},
		{"single", learn.Options{SingleNodeOnly: true}},
		{"frames3", learn.Options{MaxFrames: 3}},
		{"skipcomb", learn.Options{SkipComb: true}},
		{"noties", learn.Options{DisableTies: true}},
		{"noearly", learn.Options{DisableEarlyStop: true}},
	}
	var lines []string
	for _, c := range circs {
		for _, lo := range lopts {
			lines = append(lines, fmt.Sprintf("learn/%s/%s %s", c.Name, lo.name, Fingerprint(c, lo.opt)))
		}
	}
	for _, name := range []string{"s382", "s953"} {
		c := gen.MustBuild(name)
		faults, _ := fault.Collapse(c)
		ropt := atpg.RunOptions{
			CompactTests: true,
			ATPG: atpg.Options{
				BacktrackLimit: 30,
				Windows:        []int{1, 2, 4, 8},
				Mode:           atpg.ModeForbidden,
				FillSeed:       0x7e57,
			},
		}
		learnFP := Fingerprint(c, learn.Options{})
		lines = append(lines, fmt.Sprintf("atpg/%s %s", name, ATPGFingerprint(learnFP, c, faults, ropt)))
		ropt.PreUntestable = faults[:len(faults)/3]
		lines = append(lines, fmt.Sprintf("atpg/%s/pre %s", name, ATPGFingerprint(learnFP, c, faults, ropt)))
	}
	return lines
}

// TestFingerprintsPinned recomputes the pinned content addresses and
// compares them with testdata/fingerprints.txt, so a faster writer or
// hasher cannot silently re-key every cache.
func TestFingerprintsPinned(t *testing.T) {
	got := pinnedFingerprints()
	if *updateFingerprints {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintsPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(fingerprintsPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints computed, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("fingerprint changed:\ngot  %s\nwant %s", got[i], want[i])
		}
	}
}
