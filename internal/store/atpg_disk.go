package store

import (
	"bufio"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// On-disk test-set artifacts live next to the learning artifacts, in the
// same fingerprint-sharded layout:
//
//	<dir>/<fp[:2]>/<fp>.tests
//
// A single self-contained text file (version-tagged header, PI signature,
// per-fault status lines, then the test sequences frame by frame) written
// via temp file + atomic rename, so a crashed writer never leaves a
// half-artifact. Unlike the .imply/.ties pair there is no multi-file
// ordering to reason about: the artifact either exists completely or not
// at all.

const testsFormatTag = "seqatpg-tests 1"

// saveDiskATPG persists the artifact.
func (s *Store) saveDiskATPG(art *ATPGArtifact) error {
	path := s.diskPath(art.Fingerprint, ".tests")
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeAtomic(s.fs, path, func(w *bufio.Writer) error {
		res := &art.Result
		fmt.Fprintln(w, testsFormatTag)
		fmt.Fprintf(w, "learn %s\n", art.LearnFP)
		fmt.Fprintf(w, "pis %d %s\n", len(art.PISignature), strings.Join(art.PISignature, " "))
		fmt.Fprintf(w, "counts %d %d %d %d %d %d %d %d %d %d\n",
			res.Total, res.Detected, res.Untestable, res.Aborted, res.Backtracks,
			res.VerifyFailures, res.TestsCompacted,
			res.SeedTestsKept, res.SeedDetected, res.PodemTargets)
		fmt.Fprintf(w, "faults %d\n", len(res.Faults))
		for i, f := range res.Faults {
			fmt.Fprintf(w, "%s %s %c\n",
				art.Circuit.NameOf(f.Node), f.Stuck, statusChar(res.Status[i]))
		}
		fmt.Fprintf(w, "tests %d\n", len(res.Tests))
		for ti, test := range res.Tests {
			tgt := res.TestTargets[ti]
			fmt.Fprintf(w, "test %d %s %s\n",
				len(test), art.Circuit.NameOf(tgt.Node), tgt.Stuck)
			for _, vec := range test {
				b := make([]byte, len(vec))
				for i, v := range vec {
					b[i] = v.String()[0]
				}
				w.Write(b)
				w.WriteByte('\n')
			}
		}
		_, err := fmt.Fprintln(w, "end")
		return err
	})
}

func statusChar(st atpg.FaultStatus) byte {
	switch st {
	case atpg.StatusDetected:
		return 'd'
	case atpg.StatusUntestable:
		return 'u'
	case atpg.StatusAborted:
		return 'a'
	default:
		return 'p'
	}
}

func parseStatus(b byte) (atpg.FaultStatus, bool) {
	switch b {
	case 'd':
		return atpg.StatusDetected, true
	case 'u':
		return atpg.StatusUntestable, true
	case 'a':
		return atpg.StatusAborted, true
	case 'p':
		return atpg.StatusPending, true
	}
	return 0, false
}

// loadDiskATPG rebuilds an artifact from disk. With a non-nil circuit
// (exact-key reload), fault names and test targets are resolved against it
// and the PI signature must match; with a nil circuit (seed lookup for
// incremental reuse) only the signature, counts and test vectors are
// loaded — enough to replay. Any inconsistency is an error and the caller
// falls back to running.
func (s *Store) loadDiskATPG(fp string, c *netlist.Circuit) (*ATPGArtifact, error) {
	f, err := s.fs.Open(s.diskPath(fp, ".tests"))
	if err != nil {
		return nil, err
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	line := 0
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", fmt.Errorf("store: %s.tests: truncated at line %d", fp[:12], line)
		}
		line++
		return sc.Text(), nil
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("store: %s.tests line %d: %s", fp[:12], line, fmt.Sprintf(format, args...))
	}

	if l, err := next(); err != nil {
		return nil, err
	} else if l != testsFormatTag {
		return nil, fail("bad header %q", l)
	}

	art := &ATPGArtifact{Fingerprint: fp, Circuit: c}
	l, err := next()
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(l, "learn %s", &art.LearnFP); err != nil {
		return nil, fail("bad learn line %q", l)
	}

	if l, err = next(); err != nil {
		return nil, err
	}
	piFields := strings.Fields(l)
	if len(piFields) < 2 || piFields[0] != "pis" {
		return nil, fail("bad pis line %q", l)
	}
	art.PISignature = piFields[2:]
	if fmt.Sprint(len(art.PISignature)) != piFields[1] {
		return nil, fail("pi count mismatch")
	}
	if c != nil && !slices.Equal(art.PISignature, PISignature(c)) {
		return nil, fail("primary-input signature does not match the circuit")
	}

	res := &art.Result
	if l, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(l, "counts %d %d %d %d %d %d %d %d %d %d",
		&res.Total, &res.Detected, &res.Untestable, &res.Aborted, &res.Backtracks,
		&res.VerifyFailures, &res.TestsCompacted,
		&res.SeedTestsKept, &res.SeedDetected, &res.PodemTargets); err != nil {
		return nil, fail("bad counts line %q", l)
	}

	var nFaults int
	if l, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(l, "faults %d", &nFaults); err != nil {
		return nil, fail("bad faults line %q", l)
	}
	for i := 0; i < nFaults; i++ {
		if l, err = next(); err != nil {
			return nil, err
		}
		name, stuck, stat, err := parseFaultLine(l)
		if err != nil {
			return nil, fail("%v", err)
		}
		if c != nil {
			node, ok := c.Lookup(name)
			if !ok {
				return nil, fail("unknown node %q", name)
			}
			res.Faults = append(res.Faults, fault.Fault{Node: node, Stuck: stuck})
			res.Status = append(res.Status, stat)
		}
	}

	var nTests int
	if l, err = next(); err != nil {
		return nil, err
	}
	if _, err := fmt.Sscanf(l, "tests %d", &nTests); err != nil {
		return nil, fail("bad tests line %q", l)
	}
	for t := 0; t < nTests; t++ {
		if l, err = next(); err != nil {
			return nil, err
		}
		var frames int
		var tgtName, tgtStuck string
		if _, err := fmt.Sscanf(l, "test %d %s %s", &frames, &tgtName, &tgtStuck); err != nil {
			return nil, fail("bad test line %q", l)
		}
		if c != nil {
			node, ok := c.Lookup(tgtName)
			if !ok {
				return nil, fail("unknown target %q", tgtName)
			}
			stuck, err := parseStuck(tgtStuck)
			if err != nil {
				return nil, fail("%v", err)
			}
			res.TestTargets = append(res.TestTargets, fault.Fault{Node: node, Stuck: stuck})
		}
		test := make([][]logic.V, frames)
		for fr := 0; fr < frames; fr++ {
			if l, err = next(); err != nil {
				return nil, err
			}
			if len(l) != len(art.PISignature) {
				return nil, fail("frame width %d, want %d", len(l), len(art.PISignature))
			}
			vec := make([]logic.V, len(l))
			for i := 0; i < len(l); i++ {
				switch l[i] {
				case '0':
					vec[i] = logic.Zero
				case '1':
					vec[i] = logic.One
				case 'X':
					vec[i] = logic.X
				default:
					return nil, fail("bad value %q", l[i])
				}
			}
			test[fr] = vec
		}
		res.Tests = append(res.Tests, test)
	}
	if l, err = next(); err != nil {
		return nil, err
	} else if l != "end" {
		return nil, fail("missing end marker")
	}
	return art, nil
}

func parseFaultLine(l string) (name string, stuck logic.V, stat atpg.FaultStatus, err error) {
	fields := strings.Fields(l)
	if len(fields) != 3 || len(fields[2]) != 1 {
		return "", 0, 0, fmt.Errorf("bad fault line %q", l)
	}
	if stuck, err = parseStuck(fields[1]); err != nil {
		return "", 0, 0, err
	}
	st, ok := parseStatus(fields[2][0])
	if !ok {
		return "", 0, 0, fmt.Errorf("bad status %q", fields[2])
	}
	return fields[0], stuck, st, nil
}

func parseStuck(s string) (logic.V, error) {
	switch s {
	case "0":
		return logic.Zero, nil
	case "1":
		return logic.One, nil
	}
	return 0, fmt.Errorf("bad stuck value %q", s)
}
