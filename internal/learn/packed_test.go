package learn

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// updateGolden rewrites testdata/learn_digests.txt from the serial
// full-width learner:
//
//	go test ./internal/learn -run TestPackedLearning -update-golden
//
// The pinned digests were recorded from a serial learner that ran one
// scalar engine run per injection, so every lanes × workers combination
// below is still checked against one-at-a-time simulation. Regenerate only
// for a change meant to alter learned results.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/learn_digests.txt")

const digestPath = "testdata/learn_digests.txt"

// fixture is one pinned learning run: a circuit and the options whose
// dumpResult digest the fixture file records.
type fixture struct {
	name    string
	circuit func() *netlist.Circuit
	opt     Options
}

func fixtures() []fixture {
	suite := func(name string) func() *netlist.Circuit {
		return func() *netlist.Circuit { return gen.MustBuild(name) }
	}
	return []fixture{
		{"s953/rows", suite("s953"), Options{KeepRows: true}},
		{"s1423/rows", suite("s1423"), Options{KeepRows: true}},
		{"multiclock5/frames10", func() *netlist.Circuit { return multiClockCircuit(5) }, Options{MaxFrames: 10}},
		// The ablations, whose simulation configurations differ (gating,
		// no tie constants, no early stop), keep the names they were
		// recorded under.
		{"s953/ablation0", suite("s953"), Options{SingleNodeOnly: true, SkipComb: true}},
		{"s953/ablation1", suite("s953"), Options{DisableTies: true, SkipComb: true}},
		{"s953/ablation3", suite("s953"), Options{DisableEarlyStop: true, SkipComb: true}},
	}
}

// dumpDigest hashes the full observable dump of a learning result.
func dumpDigest(c *netlist.Circuit, res *Result) string {
	sum := sha256.Sum256([]byte(dumpResult(c, res)))
	return hex.EncodeToString(sum[:])
}

// wantDigests loads the fixture file, first rewriting it from serial runs
// under -update-golden.
func wantDigests(t *testing.T) map[string]string {
	t.Helper()
	if *updateGolden {
		var sb strings.Builder
		for _, f := range fixtures() {
			c := f.circuit()
			opt := f.opt
			opt.Parallelism = 1
			fmt.Fprintf(&sb, "%s %s\n", f.name, dumpDigest(c, Learn(c, opt)))
		}
		if err := os.MkdirAll(filepath.Dir(digestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range fixtures() {
		names[f.name] = true
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed digest line %q", line)
		}
		if !names[name] {
			t.Fatalf("%s pins %q, which no fixture names", digestPath, name)
		}
		want[name] = digest
	}
	return want
}

// checkFixtures learns every fixture the name filter matches for
// each batch size and worker count and compares the dump digest against the
// pinned one: packing and sharding must leave the learned database,
// ties, equivalences, rows and statistics byte-identical to the recorded
// serial run.
func checkFixtures(t *testing.T, match func(name string) bool) {
	want := wantDigests(t)
	n := 0
	for _, f := range fixtures() {
		if !match(f.name) {
			continue
		}
		n++
		digest, ok := want[f.name]
		if !ok {
			t.Fatalf("%s: no pinned digest in %s", f.name, digestPath)
		}
		c := f.circuit()
		for _, lanes := range []int{1, 7, 64} {
			for _, p := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				opt := f.opt
				opt.Parallelism = p
				if got := dumpDigest(c, learnWith(c, opt, lanes, nil)); got != digest {
					t.Fatalf("%s: lanes=%d workers=%d digest %s, pinned %s",
						f.name, lanes, p, got, digest)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no fixture matched")
	}
}

// TestPackedLearningEquivalence is the packed learner's contract on the
// suite circuits with rows kept.
func TestPackedLearningEquivalence(t *testing.T) {
	checkFixtures(t, func(name string) bool { return strings.HasSuffix(name, "/rows") })
}

// TestPackedLearningEquivalenceAblations sweeps every ablation option set
// on s953 through the same lanes × workers grid.
func TestPackedLearningEquivalenceAblations(t *testing.T) {
	checkFixtures(t, func(name string) bool { return strings.Contains(name, "/ablation") })
}

// TestPackedLearningMultiClock covers the row-cache interaction: cached
// rows bypass the packed batches entirely and must still merge into the
// same result across class passes.
func TestPackedLearningMultiClock(t *testing.T) {
	checkFixtures(t, func(name string) bool { return strings.HasPrefix(name, "multiclock") })
}
