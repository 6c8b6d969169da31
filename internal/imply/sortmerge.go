package imply

import (
	"slices"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// relEntry is one canonical relation with its metadata, packed into 16
// bytes (a Relation and a relMeta take 24): the unit the builder logs and
// LoadSnapshot parses, and that sortMerge orders and merges into a
// Snapshot's contents.
type relEntry struct {
	a, b  netlist.NodeID // the literals' nodes
	dt    int16
	depth int16
	flags uint8 // aOne, bOne, comb
}

const (
	aOne uint8 = 1 << iota // the antecedent's value is 1
	bOne                   // the consequent's value is 1
	combFlag
)

// newEntry packs a relation with known literal values and its metadata.
func newEntry(r Relation, m relMeta) relEntry {
	e := relEntry{a: r.A.Node, b: r.B.Node, dt: r.Dt, depth: m.depth}
	if r.A.Val == logic.One {
		e.flags |= aOne
	}
	if r.B.Val == logic.One {
		e.flags |= bOne
	}
	if m.comb {
		e.flags |= combFlag
	}
	return e
}

func (e *relEntry) relation() Relation {
	return Relation{
		A:  Lit{Node: e.a, Val: logic.FromBool(e.flags&aOne != 0)},
		B:  Lit{Node: e.b, Val: logic.FromBool(e.flags&bOne != 0)},
		Dt: e.dt,
	}
}

func (e *relEntry) meta() relMeta { return relMeta{comb: e.flags&combFlag != 0, depth: e.depth} }

// sameRelation reports whether e and o hold the same relation, whatever
// their metadata.
func (e *relEntry) sameRelation(o *relEntry) bool {
	return e.a == o.a && e.b == o.b && e.dt == o.dt && (e.flags^o.flags)&(aOne|bOne) == 0
}

func entryCmp(a, b relEntry) int { return relCmp(a.relation(), b.relation()) }

// relLog is an append-only log of canonical entries: the builder's store
// and LoadSnapshot's staging area. It grows in chunks whose size doubles
// up to maxChunk entries, so appending never copies entries already
// logged (a single growing slice copies each of them several times).
type relLog struct {
	chunks [][]relEntry
}

const maxChunk = 1 << 13

func (l *relLog) add(e relEntry) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		size := 64
		if k >= 0 {
			size = min(max(2*cap(l.chunks[k]), size), maxChunk)
		}
		l.chunks = append(l.chunks, make([]relEntry, 0, size))
		k++
	}
	l.chunks[k] = append(l.chunks[k], e)
}

// merged gathers the log into one slice, sorts and merges it (sortMerge),
// keeps the result as the log's only chunk and returns it.
func (l *relLog) merged() []relEntry {
	var es []relEntry
	if len(l.chunks) == 1 {
		es = l.chunks[0]
	} else {
		es = slices.Concat(l.chunks...)
	}
	es = sortMerge(es)
	l.chunks = [][]relEntry{es}
	return es
}

// sortMerge puts canonical entries in relCmp order and merges the repeats
// of each relation as the builder always has: the comb flag OR-ed, the
// minimum depth kept. It works in place and returns the distinct prefix of
// es. Input that is already in order (a serialized snapshot) is not
// sorted again.
func sortMerge(es []relEntry) []relEntry {
	if !slices.IsSortedFunc(es, entryCmp) {
		radixSort(es)
	}
	out := es[:0]
	for _, e := range es {
		if k := len(out) - 1; k >= 0 && out[k].sameRelation(&e) {
			out[k].flags |= e.flags & combFlag
			out[k].depth = min(out[k].depth, e.depth)
			continue
		}
		out = append(out, e)
	}
	return out
}

// The radix key of an entry is (dtKey, A's litUKey, B's litUKey): each
// field an unsigned integer that orders like the signed field relCmp
// compares, so the key's lexicographic order is relCmp's over the full
// int16 and int32 ranges.

// dtKey flips the sign bit of the displacement.
func dtKey(e *relEntry) uint64 { return uint64(uint16(e.dt) ^ 0x8000) }

// litUKey is litKey widened to 33 bits and offset to be non-negative.
func litUKey(n netlist.NodeID, one bool) uint64 {
	k := 2*int64(n) + 1<<32
	if one {
		k++
	}
	return uint64(k)
}

func aKey(e *relEntry) uint64 { return litUKey(e.a, e.flags&aOne != 0) }
func bKey(e *relEntry) uint64 { return litUKey(e.b, e.flags&bOne != 0) }

// Byte digits of the key, least significant first: five of B's litUKey,
// five of A's, two of dtKey.
const (
	litDigits = 5
	numDigits = 2*litDigits + 2
)

// keyDigit returns digit k of e's radix key.
func keyDigit(e *relEntry, k int) byte {
	switch {
	case k < litDigits:
		return byte(bKey(e) >> (8 * k))
	case k < 2*litDigits:
		return byte(aKey(e) >> (8 * (k - litDigits)))
	default:
		return byte(dtKey(e) >> (8 * (k - 2*litDigits)))
	}
}

// radixSort sorts es into relCmp order: a least-significant-digit radix
// sort over byte digits that skips every digit all keys share.
func radixSort(es []relEntry) {
	var counts [numDigits][256]int
	for i := range es {
		e := &es[i]
		a, b, d := aKey(e), bKey(e), dtKey(e)
		for k := 0; k < litDigits; k++ {
			counts[k][byte(b>>(8*k))]++
			counts[litDigits+k][byte(a>>(8*k))]++
		}
		counts[2*litDigits][byte(d)]++
		counts[2*litDigits+1][byte(d>>8)]++
	}
	n := len(es)
	var buf []relEntry
	src := es
	for k := 0; k < numDigits; k++ {
		if counts[k][keyDigit(&es[0], k)] == n {
			continue // every key has this digit
		}
		if buf == nil {
			buf = make([]relEntry, n)
		}
		dst := buf
		if &src[0] == &buf[0] {
			dst = es
		}
		var off [256]int
		sum := 0
		for d, cnt := range counts[k] {
			off[d] = sum
			sum += cnt
		}
		switch {
		case k < litDigits:
			sh := 8 * k
			for i := range src {
				d := byte(bKey(&src[i]) >> sh)
				dst[off[d]] = src[i]
				off[d]++
			}
		case k < 2*litDigits:
			sh := 8 * (k - litDigits)
			for i := range src {
				d := byte(aKey(&src[i]) >> sh)
				dst[off[d]] = src[i]
				off[d]++
			}
		default:
			sh := 8 * (k - 2*litDigits)
			for i := range src {
				d := byte(dtKey(&src[i]) >> sh)
				dst[off[d]] = src[i]
				off[d]++
			}
		}
		src = dst
	}
	if len(src) > 0 && &src[0] != &es[0] {
		copy(es, src)
	}
}
