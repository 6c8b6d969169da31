package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/learn"
	"repro/internal/netlist"
)

// Fingerprint returns the content address of a learning artifact: the
// SHA-256 of the circuit's canonical .bench form (comment lines stripped,
// so the circuit's display name does not fragment the cache) combined with
// the result-relevant learning options. Two requests share a fingerprint
// exactly when learning would produce bit-identical results for them, so
// the fingerprint is the cache key, the singleflight key and the on-disk
// file name all at once.
//
// Options that cannot change the learned relations are excluded:
// Parallelism (sharded, packed learning is bit-identical for every worker
// and lane count — TestPackedLearningEquivalence), KeepRows (affects only
// the Table 1 row dump), Cancel (an execution knob; canceled runs are never
// cached at all) and Span (observation only). Unset options are folded
// to their effective defaults first, so an explicit
// Options{MaxFrames: 50} and the zero value hash identically.
func Fingerprint(c *netlist.Circuit, opt learn.Options) string {
	h := sha256.New()
	if err := bench.Write(&commentStripper{w: h}, c); err != nil {
		// The hash writer never fails; a bench.Write error would mean an
		// invalid circuit, which the netlist builder prevents.
		panic(fmt.Sprintf("store: fingerprint write: %v", err))
	}
	opt = opt.Normalized() // owning packages fold the defaults, not copies here
	// noequiv, fix, pairs and the |equiv| fields are learning's fixed
	// settings (equivalences on, one multiple-node pass, a 1<<20 pair
	// budget per stem, and equiv's rounds, support bound, class bound and
	// seed, without complements). They are hashed as the literal text the
	// fingerprint has always covered, so every content address, and every
	// cache directory already written, stays valid.
	fmt.Fprintf(h, "|learn|frames=%d single=%t noties=%t noequiv=false noearly=%t fix=false skipcomb=%t pairs=1048576",
		opt.MaxFrames, opt.SingleNodeOnly, opt.DisableTies, opt.DisableEarlyStop, opt.SkipComb)
	io.WriteString(h, "|equiv|rounds=8 support=14 class=32 seed=24301 compl=false")
	return hex.EncodeToString(h.Sum(nil))
}

// commentStripper forwards writes to w with full '#'-to-newline spans
// removed, so the canonical form hashed by Fingerprint is independent of
// the header comment bench.Write emits (which embeds the circuit name).
type commentStripper struct {
	w         io.Writer
	inComment bool
}

func (cs *commentStripper) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		if cs.inComment {
			j := bytes.IndexByte(p[i:], '\n')
			if j < 0 {
				break
			}
			cs.inComment = false
			i += j // keep the newline
			continue
		}
		j := bytes.IndexByte(p[i:], '#')
		if j < 0 {
			j = len(p) - i
		}
		if j > 0 {
			if _, err := cs.w.Write(p[i : i+j]); err != nil {
				return i, err
			}
		}
		if i += j; i < len(p) {
			cs.inComment = true
			i++
		}
	}
	return len(p), nil
}
