package fault

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
)

// TestPackedFaultSimEquivalence is the tentpole contract: the packed
// simulator's detection map over the collapsed fault list — detected flag
// and first detecting frame per fault — is bit-identical to the scalar
// event-driven Sim on the suite circuits, for every batch size tried and every
// ParallelSim worker count.
func TestPackedFaultSimEquivalence(t *testing.T) {
	for _, name := range []string{"s953", "s1423"} {
		c := gen.MustBuild(name)
		faults, _ := Collapse(c)
		r := logic.NewRand64(0x9ac4ed)
		vectors := randVectors(r, len(c.PIs), 16)

		s := NewSim(c)
		s.LoadSequence(vectors, nil)
		base := dumpDetections(faults, s.DetectAll(faults))
		if !strings.Contains(base, "det=true") {
			t.Fatalf("%s: setup detected nothing", name)
		}

		// Packed, at every batch split including ragged partial batches.
		for _, batch := range []int{1, 3, 17, 63, 64} {
			p := NewPackedSim(c)
			p.batch = batch
			p.LoadSequence(vectors, nil)
			if got := dumpDetections(faults, p.DetectAll(faults)); got != base {
				t.Fatalf("%s: packed batch=%d detection map differs from scalar", name, batch)
			}
		}

		// Sharded packed, for every worker count.
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			ps := NewParallelSim(c, w)
			ps.LoadSequence(vectors, nil)
			if got := dumpDetections(faults, ps.Detect(faults)); got != base {
				t.Fatalf("%s: workers=%d batched detection map differs from scalar", name, w)
			}
		}
	}
}

// TestPackedSimMatchesBruteForce closes the loop against the slowest, most
// trustworthy reference: a full faulty-machine re-simulation with FuncSim,
// on random sequential circuits.
func TestPackedSimMatchesBruteForce(t *testing.T) {
	for _, seed := range []uint64{2, 13, 77} {
		c := randTestCircuit(seed)
		p := NewPackedSim(c)
		r := logic.NewRand64(seed ^ 0xabc)
		for trial := 0; trial < 3; trial++ {
			vectors := randVectors(r, len(c.PIs), 6)
			p.LoadSequence(vectors, nil)
			faults := Universe(c)
			dets := p.DetectAll(faults)
			for i, f := range faults {
				if want := bruteForceDetects(c, f, vectors); dets[i].Detected != want {
					t.Fatalf("seed %d trial %d fault %s: packed %v brute-force %v",
						seed, trial, Name(c, f), dets[i].Detected, want)
				}
			}
		}
	}
}

// TestPackedSimXVectors drives sequences containing unknown PI values: the
// conservative detection rule must keep agreeing with the scalar simulator
// when the good machine itself is partially unknown.
func TestPackedSimXVectors(t *testing.T) {
	c := gen.MustBuild("s953")
	faults, _ := Collapse(c)
	r := logic.NewRand64(0xec5)
	vectors := make([][]logic.V, 12)
	for ti := range vectors {
		vec := make([]logic.V, len(c.PIs))
		for i := range vec {
			switch r.Intn(3) {
			case 0:
				vec[i] = logic.X
			case 1:
				vec[i] = logic.Zero
			default:
				vec[i] = logic.One
			}
		}
		vectors[ti] = vec
	}
	s := NewSim(c)
	s.LoadSequence(vectors, nil)
	base := dumpDetections(faults, s.DetectAll(faults))
	p := NewPackedSim(c)
	p.LoadSequence(vectors, nil)
	if got := dumpDetections(faults, p.DetectAll(faults)); got != base {
		t.Fatal("X-heavy detection map differs between packed and scalar")
	}
}

// TestPackedSimCloneAndReload: clones are independent, and a reload fully
// replaces the sequence a clone adopted.
func TestPackedSimCloneAndReload(t *testing.T) {
	c := gen.MustBuild("s953")
	faults, _ := Collapse(c)
	faults = faults[:130] // spans ragged final batch
	r := logic.NewRand64(31)
	vecA := randVectors(r, len(c.PIs), 8)
	vecB := randVectors(r, len(c.PIs), 8)

	a := NewPackedSim(c)
	b := a.Clone()
	a.LoadSequence(vecA, nil)
	b.LoadSequence(vecB, nil)
	gotA := dumpDetections(faults, a.DetectAll(faults))
	gotB := dumpDetections(faults, b.DetectAll(faults))

	ref := NewSim(c)
	ref.LoadSequence(vecA, nil)
	if want := dumpDetections(faults, ref.DetectAll(faults)); gotA != want {
		t.Fatal("clone's activity corrupted the original packed simulator")
	}
	ref.LoadSequence(vecB, nil)
	if want := dumpDetections(faults, ref.DetectAll(faults)); gotB != want {
		t.Fatal("packed clone disagrees with scalar on its own sequence")
	}

	// Reload the original: the old planes must be fully replaced.
	a.LoadSequence(vecB, nil)
	if got := dumpDetections(faults, a.DetectAll(faults)); got != gotB {
		t.Fatal("reload left stale planes behind")
	}
	if a.Frames() != 8 {
		t.Fatalf("Frames = %d", a.Frames())
	}
}
