package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// On-disk layout: artifacts live under Options.Dir, sharded by the first
// two fingerprint hex digits to keep directories small at scale:
//
//	<dir>/<fp[:2]>/<fp>.imply   relations, in the imply serialization format
//	<dir>/<fp[:2]>/<fp>.ties    one "name value frame" line per tied gate,
//	                            preceded by "# key value" header lines
//	                            carrying scalar learn results (equiv-classes)
//
// Both files are written via a temp file + rename, so a crashed writer
// never leaves a partial artifact a later load would trust. The .imply
// file is exactly what imply.LoadSnapshot reads, so cached relations are
// also inspectable and reusable with the standalone tools.
//
// Every operation goes through the store's FS so that I/O failures can be
// injected (internal/chaos) and classified: an I/O error on any of these
// paths downgrades the store to memory-only (see degrade.go) instead of
// failing the request that happened to touch the disk.

// diskPath returns the sharded path of a fingerprint's file with the
// given extension (".imply", ".ties" or ".tests").
func (s *Store) diskPath(fp, ext string) string {
	return filepath.Join(s.opt.Dir, fp[:2], fp+ext)
}

// saveDisk persists the artifact. The ties file is written first and the
// relations file last, because loadDisk treats a missing .imply as a miss:
// a crash between the two renames leaves a harmless orphan, never a
// half-artifact.
func (s *Store) saveDisk(art *Artifact) error {
	implyPath, tiesPath := s.diskPath(art.Fingerprint, ".imply"), s.diskPath(art.Fingerprint, ".ties")
	if err := s.fs.MkdirAll(filepath.Dir(implyPath), 0o755); err != nil {
		return err
	}
	if err := writeAtomic(s.fs, tiesPath, func(w *bufio.Writer) error {
		// Scalar results that aren't derivable from the relations or ties
		// ride as header lines, so a disk reload answers exactly what the
		// original learning run did.
		if _, err := fmt.Fprintf(w, "# equiv-classes %d\n", art.EquivClasses); err != nil {
			return err
		}
		for _, tie := range art.Ties() {
			if _, err := fmt.Fprintf(w, "%s %s %d\n",
				art.Circuit.NameOf(tie.Node), tie.Val, tie.Frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return writeAtomic(s.fs, implyPath, func(w *bufio.Writer) error {
		return art.DB.Serialize(w)
	})
}

// loadDisk rebuilds an artifact from disk against the request's circuit.
// Any inconsistency (missing file, unknown node name, malformed line) is
// an error; the caller falls back to learning.
func (s *Store) loadDisk(fp string, c *netlist.Circuit) (*Artifact, error) {
	implyPath, tiesPath := s.diskPath(fp, ".imply"), s.diskPath(fp, ".ties")
	rf, err := s.fs.Open(implyPath)
	if err != nil {
		// A .ties without its .imply is the debris of a writer that crashed
		// between the two renames; sweep it instead of leaving the
		// half-artifact to future load-order reasoning. The re-learn that
		// follows rewrites both files.
		if isNotExist(err) {
			if _, terr := s.fs.Stat(tiesPath); terr == nil {
				s.fs.Remove(tiesPath)
			}
		}
		return nil, err
	}
	defer rf.Close()
	snap, err := imply.LoadSnapshot(c, bufio.NewReader(rf))
	if err != nil {
		return nil, err
	}

	tf, err := s.fs.Open(tiesPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	combTies, seqTies, equiv, err := readTies(c, tf)
	if err != nil {
		return nil, err
	}

	return &Artifact{
		Fingerprint:  fp,
		Circuit:      c,
		DB:           snap,
		CombTies:     combTies,
		SeqTies:      seqTies,
		EquivClasses: equiv,
	}, nil
}

// isNotExist reports a plain cache miss (as opposed to an I/O failure).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// readTies parses the ties file, splitting combinational (frame 0) from
// sequential ties the way learn.Result does. "# key value" header lines
// carry scalar results; unknown keys are skipped (older readers ignore
// newer headers, and files written before the headers existed load with
// the scalars zeroed).
func readTies(c *netlist.Circuit, f io.Reader) (comb, seq []learn.Tie, equiv int, err error) {
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(strings.TrimPrefix(line, "#"))
			if len(fields) == 2 && fields[0] == "equiv-classes" {
				if equiv, err = strconv.Atoi(fields[1]); err != nil || equiv < 0 {
					return nil, nil, 0, fmt.Errorf("store: ties line %d: bad equiv-classes %q", lineNo, fields[1])
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, nil, 0, fmt.Errorf("store: ties line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		node, ok := c.Lookup(fields[0])
		if !ok {
			return nil, nil, 0, fmt.Errorf("store: ties line %d: unknown node %q", lineNo, fields[0])
		}
		var val logic.V
		switch fields[1] {
		case "0":
			val = logic.Zero
		case "1":
			val = logic.One
		default:
			return nil, nil, 0, fmt.Errorf("store: ties line %d: bad value %q", lineNo, fields[1])
		}
		frame, err := strconv.Atoi(fields[2])
		if err != nil || frame < 0 {
			return nil, nil, 0, fmt.Errorf("store: ties line %d: bad frame %q", lineNo, fields[2])
		}
		tie := learn.Tie{Node: node, Val: val, Frame: frame}
		if frame == 0 {
			comb = append(comb, tie)
		} else {
			seq = append(seq, tie)
		}
	}
	return comb, seq, equiv, sc.Err()
}

// writeAtomic writes path through a temp file in the same directory and
// renames it into place. A failure at any step — including an injected
// short write — leaves at most a temp file behind, never a partial file
// under the final name.
func writeAtomic(fsys FS, path string, fill func(*bufio.Writer) error) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	if err := fill(w); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fsys.Rename(tmp.Name(), path)
}
