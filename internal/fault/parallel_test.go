package fault

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/logic"
)

// dumpDetections renders the full detection map — every fault with its
// outcome and first detecting frame — so runs can be compared byte for
// byte.
func dumpDetections(faults []Fault, dets []Detection) string {
	var sb strings.Builder
	for i, f := range faults {
		fmt.Fprintf(&sb, "%s det=%v frame=%d\n", f, dets[i].Detected, dets[i].Frame)
	}
	return sb.String()
}

// TestParallelFaultSimDeterminism is the core contract of the sharded
// fault simulator: for 1, 2, 4 and NumCPU workers the detection map over
// the collapsed fault list is byte-identical to the serial Sim.
func TestParallelFaultSimDeterminism(t *testing.T) {
	for _, name := range []string{"s953", "s1423"} {
		c := gen.MustBuild(name)
		faults, _ := Collapse(c)
		r := logic.NewRand64(0xfa17)
		vectors := randVectors(r, len(c.PIs), 16)

		s := NewSim(c)
		s.LoadSequence(vectors, nil)
		base := dumpDetections(faults, s.DetectAll(faults))
		if !strings.Contains(base, "det=true") {
			t.Fatalf("%s: setup detected nothing", name)
		}

		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			p := NewParallelSim(c, w)
			p.LoadSequence(vectors, nil)
			got := dumpDetections(faults, p.Detect(faults))
			if got != base {
				t.Fatalf("%s: workers=%d detection map differs from serial run (%d vs %d bytes)",
					name, w, len(got), len(base))
			}
		}
	}
}

// TestParallelSimReload covers the sequence-sharing path across reloads: a
// second LoadSequence must fully replace what every worker observes, and
// Detect must agree with a fresh scalar simulator's DetectAll on every
// sequence.
func TestParallelSimReload(t *testing.T) {
	c := gen.MustBuild("s953")
	faults, _ := Collapse(c)
	faults = faults[:120]
	p := NewParallelSim(c, 4)
	r := logic.NewRand64(99)
	for trial := 0; trial < 3; trial++ {
		vectors := randVectors(r, len(c.PIs), 8)
		p.LoadSequence(vectors, nil)
		if p.Frames() != 8 {
			t.Fatalf("Frames = %d", p.Frames())
		}
		got := dumpDetections(faults, p.Detect(faults))
		s := NewSim(c)
		s.LoadSequence(vectors, nil)
		if want := dumpDetections(faults, s.DetectAll(faults)); got != want {
			t.Fatalf("trial %d: parallel detection map differs from scalar oracle (%d vs %d bytes)",
				trial, len(got), len(want))
		}
	}
}

// TestSimClone: a clone is fully independent — it loads its own sequence
// and neither simulator disturbs the other's results.
func TestSimClone(t *testing.T) {
	c := gen.MustBuild("s953")
	faults, _ := Collapse(c)
	faults = faults[:80]
	r := logic.NewRand64(7)
	vecA := randVectors(r, len(c.PIs), 8)
	vecB := randVectors(r, len(c.PIs), 8)

	a := NewSim(c)
	b := a.Clone()
	a.LoadSequence(vecA, nil)
	b.LoadSequence(vecB, nil)
	gotA := dumpDetections(faults, a.DetectAll(faults))
	gotB := dumpDetections(faults, b.DetectAll(faults))

	fresh := NewSim(c)
	fresh.LoadSequence(vecA, nil)
	if want := dumpDetections(faults, fresh.DetectAll(faults)); gotA != want {
		t.Fatal("clone's activity corrupted the original simulator")
	}
	fresh.LoadSequence(vecB, nil)
	if want := dumpDetections(faults, fresh.DetectAll(faults)); gotB != want {
		t.Fatal("clone disagrees with a fresh simulator on its own sequence")
	}
}
