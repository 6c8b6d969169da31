package atpg

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// updateGolden rewrites testdata/golden.txt from the current engine:
//
//	go test ./internal/atpg -run TestGoldenDigests -update-golden
//
// Regenerate only for a change meant to alter search results; a pure
// speed-up must leave the file untouched.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.txt")

const goldenPath = "testdata/golden.txt"

// writeTest renders a test sequence as one PI string per frame.
func writeTest(h hash.Hash, test [][]logic.V) {
	for _, vec := range test {
		h.Write([]byte{' '})
		for _, v := range vec {
			h.Write([]byte(v.String()))
		}
	}
	h.Write([]byte{'\n'})
}

// resultsDigest hashes the per-fault Generate Results of one option set
// over a circuit's whole collapsed fault list.
func resultsDigest(c *netlist.Circuit, faults []fault.Fault, opt Options) string {
	h := sha256.New()
	for _, f := range faults {
		r := Generate(c, f, opt)
		fmt.Fprintf(h, "%s %v w=%d bt=%d", f, r.Outcome, r.Window, r.Backtracks)
		writeTest(h, r.Test)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runDigest hashes the deterministic outputs of a driver run: per-fault
// status, emitted tests with their targets, and the work counters.
func runDigest(res RunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "bt=%d targets=%d compacted=%d tests=%d\n",
		res.Backtracks, res.PodemTargets, res.TestsCompacted, len(res.Tests))
	for i, f := range res.Faults {
		fmt.Fprintf(h, "%s %v\n", f, res.Status[i])
	}
	for k, test := range res.Tests {
		fmt.Fprintf(h, "%s:", res.TestTargets[k])
		writeTest(h, test)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDigests computes every digest the golden file pins.
func goldenDigests() map[string]string {
	got := map[string]string{}
	for _, c := range []*netlist.Circuit{gen.MustBuild("s382"), randCircuit(17)} {
		lr := learn.Learn(c, learn.Options{MaxFrames: 10})
		faults, _ := fault.Collapse(c)
		for _, cfg := range arenaConfigs(c, lr) {
			got[c.Name+"/"+cfg.name] = resultsDigest(c, faults, cfg.opt)
		}
	}
	// s953 through the whole driver with the atpg-campaign options.
	c := gen.MustBuild("s953")
	lr := learn.Learn(c, learn.Options{})
	faults, _ := fault.Collapse(c)
	for _, workers := range []int{1, 4} {
		res := Run(c, RunOptions{
			Faults:       faults,
			Parallelism:  workers,
			CompactTests: true,
			ATPG: Options{
				BacktrackLimit: 30,
				Windows:        []int{1, 2, 4, 8},
				Mode:           ModeForbidden,
				DB:             lr.DB,
				Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
				FillSeed:       0x7e57,
			},
		})
		got[fmt.Sprintf("s953/run-j%d", workers)] = runDigest(res)
	}
	return got
}

// TestGoldenDigests is the identical-work oracle for the PODEM engine:
// every per-fault Result on s382 and a random circuit under each arena
// configuration (all three modes, and forbidden mode with
// inconsistent ties, the one set that conflicts in mid-settle), and the
// whole s953 campaign run at one and four workers, must hash exactly to
// the digests recorded in testdata/golden.txt.
func TestGoldenDigests(t *testing.T) {
	got := goldenDigests()
	if *updateGolden {
		var sb strings.Builder
		for _, k := range slices.Sorted(maps.Keys(got)) {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, engine computed %d", len(want), len(got))
	}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		if want[k] != got[k] {
			t.Errorf("%s: digest %s, golden %s", k, got[k], want[k])
		}
	}
}
