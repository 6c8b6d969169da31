package imply

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// refDB is the reference builder: a map from canonical relation to
// metadata, merged at every add, frozen by collecting the map and sorting
// it with a comparison sort. It is the builder's behaviour the append-only
// log and sortMerge must reproduce.
type refDB struct{ set map[Relation]relMeta }

func newRefDB() *refDB { return &refDB{set: map[Relation]relMeta{}} }

// add merges one canonical relation: the comb flag OR-ed, the minimum
// depth kept.
func (db *refDB) add(r Relation, m relMeta) {
	if was, dup := db.set[r]; dup {
		was.comb = was.comb || m.comb
		was.depth = min(was.depth, m.depth)
		db.set[r] = was
		return
	}
	db.set[r] = m
}

// addLits applies DB.Add's rejections, canonicalizes and merges.
func (db *refDB) addLits(a, b Lit, dt int, comb bool, depth int) {
	if !a.Val.Known() || !b.Val.Known() || (a.Node == b.Node && dt == 0) {
		return
	}
	db.add(Relation{A: a, B: b, Dt: int16(dt)}.canonical(), relMeta{comb: comb, depth: int16(depth)})
}

func (db *refDB) entries() []relEntry {
	es := make([]relEntry, 0, len(db.set))
	for r, m := range db.set {
		es = append(es, newEntry(r, m))
	}
	slices.SortFunc(es, entryCmp)
	return es
}

// randLit draws a literal over the full int32 node range, with the
// extremes over-represented.
func randLit(rng *rand.Rand) Lit {
	var n int32
	switch rng.IntN(8) {
	case 0:
		n = math.MinInt32
	case 1:
		n = math.MaxInt32
	case 2:
		n = int32(rng.IntN(3)) - 1
	default:
		n = int32(rng.Uint32())
	}
	return Lit{Node: netlist.NodeID(n), Val: logic.FromBool(rng.IntN(2) == 1)}
}

func randDt(rng *rand.Rand) int16 {
	switch rng.IntN(8) {
	case 0:
		return math.MinInt16
	case 1:
		return math.MaxInt16
	case 2:
		return int16(rng.IntN(5)) - 2
	default:
		return int16(rng.Uint32())
	}
}

// randEntries draws n canonical entries over distinct relations about
// half as many as n: each relation recurs, in either contrapositive form,
// with its own comb flag and depth.
func randEntries(rng *rand.Rand, n int) []relEntry {
	pool := make([]Relation, max(1, n/2))
	for i := range pool {
		pool[i] = Relation{A: randLit(rng), B: randLit(rng), Dt: randDt(rng)}
	}
	es := make([]relEntry, n)
	for i := range es {
		r := pool[rng.IntN(len(pool))]
		if rng.IntN(2) == 1 {
			r = r.contrapositive()
		}
		es[i] = newEntry(r.canonical(), relMeta{
			comb:  rng.IntN(3) == 0,
			depth: int16(rng.IntN(2*math.MaxInt16+2) - math.MaxInt16 - 1),
		})
	}
	return es
}

// TestSortMergeMatchesReference checks sortMerge against a comparison sort
// plus the reference map merge, on raw entries whose node ids span the
// full int32 range and whose displacements span the full int16 range, fed
// sorted, reversed and shuffled.
func TestSortMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 23))
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1000, 20000} {
		for _, order := range []string{"sorted", "reversed", "shuffled"} {
			es := randEntries(rng, n)
			ref := newRefDB()
			for _, e := range es {
				ref.add(e.relation(), e.meta())
			}
			switch order {
			case "sorted":
				slices.SortFunc(es, entryCmp)
			case "reversed":
				slices.SortFunc(es, entryCmp)
				slices.Reverse(es)
			}
			want := ref.entries()
			if got := sortMerge(es); !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: sortMerge gives %d entries, the reference %d; first difference at %d",
					n, order, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

func firstDiff(a, b []relEntry) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// chainCircuit builds a circuit with n nodes: a primary input and a chain
// of buffers.
func chainCircuit(t testing.TB, n int) *netlist.Circuit {
	t.Helper()
	b := netlist.NewBuilder("chain")
	b.PI("n0")
	for i := 1; i < n; i++ {
		b.Gate(fmt.Sprintf("n%d", i), logic.OpBuf, netlist.P(fmt.Sprintf("n%d", i-1)))
	}
	b.PO("o", netlist.P(fmt.Sprintf("n%d", n-1)))
	return b.MustBuild()
}

// FuzzFreezeMatchesReference: a seeded random sequence of Adds, frozen at
// random points, yields at every Freeze the snapshot the reference map
// builder freezes to, byte for byte.
func FuzzFreezeMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint16(4), uint8(0))
	f.Add(uint64(2), uint16(2000), uint16(600), uint8(3))
	f.Add(uint64(3), uint16(700), uint16(40), uint8(120))
	c := chainCircuit(f, 600)
	f.Fuzz(func(t *testing.T, seed uint64, count, nodes uint16, dtSpan uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(count)))
		n := 1 + int(nodes)%c.NumNodes()
		lit := func() Lit {
			v := logic.FromBool(rng.IntN(2) == 1)
			if rng.IntN(64) == 0 {
				v = logic.X
			}
			return Lit{Node: netlist.NodeID(rng.IntN(n)), Val: v}
		}
		db, ref := NewDB(c), newRefDB()
		for i := range int(count) % 4096 {
			a, b := lit(), lit()
			dt := rng.IntN(2*int(dtSpan)+1) - int(dtSpan)
			comb, depth := rng.IntN(3) == 0, rng.IntN(6)
			db.Add(a, b, dt, comb, depth)
			ref.addLits(a, b, dt, comb, depth)
			if rng.IntN(512) == 0 || i == int(count)%4096-1 {
				var got, want bytes.Buffer
				if err := db.Freeze().Serialize(&got); err != nil {
					t.Fatal(err)
				}
				if err := newSnapshot(c, ref.entries()).Serialize(&want); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("after %d adds: Freeze\n%s\nreference\n%s", i+1, got.Bytes(), want.Bytes())
				}
			}
		}
	})
}
