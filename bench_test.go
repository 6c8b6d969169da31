// Benchmarks regenerating every table and figure of the paper (Tables 1–5
// and Figure 2, one BenchmarkTable*/BenchmarkFigure* each), plus the
// pipeline and ablation benchmarks. Sizes are bounded so `go test
// -bench=.` finishes in minutes; `cmd/tables` without -quick runs the
// unbounded sweep.
package repro_test

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/circuits"
	"repro/internal/equiv"
	"repro/internal/fault"
	"repro/internal/fires"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// BenchmarkTable1SingleNode regenerates the paper's Table 1: single-node
// stem simulation on Figure 1.
func BenchmarkTable1SingleNode(b *testing.B) {
	c := circuits.Figure1()
	for i := 0; i < b.N; i++ {
		lr := learn.Learn(c, learn.Options{SingleNodeOnly: true, KeepRows: true, SkipComb: true})
		if len(lr.Rows) != 10 {
			b.Fatal("table 1 rows missing")
		}
	}
}

// BenchmarkTable2Learning regenerates the paper's Table 2: the full staged
// learning flow on Figure 1 (ties, equivalences, multiple-node pass).
func BenchmarkTable2Learning(b *testing.B) {
	c := circuits.Figure1()
	for i := 0; i < b.N; i++ {
		lr := learn.Learn(c, learn.Options{})
		if ffff, _, _ := lr.DB.Counts(true); ffff != 14 {
			b.Fatalf("table 2 FF-FF relations = %d, want 14", ffff)
		}
	}
}

// BenchmarkFigure2Learning regenerates the Figure 2 walk-through: the
// multiple-node relation G9=0 -> F2=0.
func BenchmarkFigure2Learning(b *testing.B) {
	c := circuits.Figure2()
	for i := 0; i < b.N; i++ {
		lr := learn.Learn(c, learn.Options{})
		if !lr.DB.HasNamed("G9", 1, "F2", 1, 0) {
			b.Fatal("figure 2 relation missing")
		}
	}
}

// BenchmarkTable3Learning regenerates Table 3 rows (sequential learning)
// per suite circuit, bounded to mid-size stand-ins for bench runs.
func BenchmarkTable3Learning(b *testing.B) {
	for _, name := range []string{"s382", "s953", "s1423", "s3330", "s5378", "s9234", "s510jcsrre", "indust1"} {
		e, _ := gen.Lookup(name)
		c := gen.Build(e)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lr := learn.Learn(c, learn.Options{SkipComb: e.Gates > 5000})
				if lr.DB.Len() == 0 {
					b.Fatal("no relations learned")
				}
			}
		})
	}
}

// BenchmarkTable4Untestable regenerates Table 4: tie-gate untestables vs
// the FIRES-style analysis.
func BenchmarkTable4Untestable(b *testing.B) {
	for _, name := range []string{"s3330", "s5378"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{})
		b.Run(name+"/ties", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fires.TieUntestable(c, lr)
			}
		})
		b.Run(name+"/fires", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fires.Fires(c, lr, fires.Options{UseRelations: true})
			}
		})
	}
}

// BenchmarkTable5ATPG regenerates Table 5 cells: the ATPG grid over
// learning modes at backtrack limit 30, on a bounded fault sample.
func BenchmarkTable5ATPG(b *testing.B) {
	for _, name := range []string{"s1423", "s510jcsrre"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{})
		combTies := append([]learn.Tie{}, lr.CombTies...)
		allTies := append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...)
		faults, _ := fault.Collapse(c)
		if len(faults) > 250 {
			faults = faults[:250]
		}
		for _, mode := range []atpg.Mode{atpg.ModeNoLearning, atpg.ModeForbidden, atpg.ModeKnown} {
			ties := allTies
			if mode == atpg.ModeNoLearning {
				ties = combTies
			}
			b.Run(fmt.Sprintf("%s/%s", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := atpg.Run(c, atpg.RunOptions{
						Faults: faults,
						ATPG: atpg.Options{
							BacktrackLimit: 30,
							Mode:           mode,
							DB:             lr.DB,
							Ties:           ties,
							FillSeed:       0x7e57,
						},
					})
					if res.VerifyFailures != 0 {
						b.Fatal("verification failure")
					}
				}
			})
		}
	}
}

// BenchmarkParallelLearning tracks the sharded learning pipeline: serial
// (Parallelism: 1) against one worker per core on a mid-size suite
// circuit. Results are bit-identical (see learn's determinism tests); only
// the wall clock differs.
func BenchmarkParallelLearning(b *testing.B) {
	c := gen.MustBuild("s5378")
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, p := range counts {
		b.Run(fmt.Sprintf("workers-%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lr := learn.Learn(c, learn.Options{Parallelism: p, SkipComb: true})
				if lr.DB.Len() == 0 {
					b.Fatal("no relations learned")
				}
			}
		})
	}
}

// benchVectors builds deterministic random PI sequences for the fault-sim
// benchmarks.
func benchVectors(seed uint64, pis, frames int) [][]logic.V {
	r := logic.NewRand64(seed)
	out := make([][]logic.V, frames)
	for t := range out {
		vec := make([]logic.V, pis)
		for i := range vec {
			vec[i] = logic.FromBool(r.Bool())
		}
		out[t] = vec
	}
	return out
}

// BenchmarkParallelFaultSim tracks the sharded fault simulator: serial
// against one worker per core, simulating the collapsed fault list of
// s5378 against a fixed random sequence. Results are bit-identical (see
// fault's determinism test); only the wall clock differs.
func BenchmarkParallelFaultSim(b *testing.B) {
	c := gen.MustBuild("s5378")
	faults, _ := fault.Collapse(c)
	vectors := benchVectors(0xbe7c, len(c.PIs), 24)
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, p := range counts {
		b.Run(fmt.Sprintf("workers-%d", p), func(b *testing.B) {
			ps := fault.NewParallelSim(c, p)
			ps.LoadSequence(vectors, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dets := ps.Detect(faults)
				if len(dets) != len(faults) {
					b.Fatal("detection map truncated")
				}
			}
		})
	}
}

// BenchmarkPackedFaultSim is the perf contract of the word-level
// bit-parallel fault simulator (PR 3): the scalar event-driven Sim against
// the packed 64-machines-per-word PackedSim, and the packed simulator
// sharded over one worker per core, all simulating the collapsed fault
// list of s5378 against the same fixed random sequence. Detection maps are
// bit-identical across all three (TestPackedFaultSimEquivalence); only the
// wall clock differs.
func BenchmarkPackedFaultSim(b *testing.B) {
	c := gen.MustBuild("s5378")
	faults, _ := fault.Collapse(c)
	vectors := benchVectors(0xbe7c, len(c.PIs), 24)
	b.Run("scalar", func(b *testing.B) {
		s := fault.NewSim(c)
		s.LoadSequence(vectors, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dets := s.DetectAll(faults); len(dets) != len(faults) {
				b.Fatal("detection map truncated")
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		p := fault.NewPackedSim(c)
		p.LoadSequence(vectors, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dets := p.DetectAll(faults); len(dets) != len(faults) {
				b.Fatal("detection map truncated")
			}
		}
	})
	if n := runtime.GOMAXPROCS(0); n > 1 {
		b.Run(fmt.Sprintf("packed-workers-%d", n), func(b *testing.B) {
			ps := fault.NewParallelSim(c, n)
			ps.LoadSequence(vectors, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dets := ps.Detect(faults); len(dets) != len(faults) {
					b.Fatal("detection map truncated")
				}
			}
		})
	}
}

// TestPackedFaultSimSpeedSmoke is the CI guard for the packed speedup: with
// BENCH_SMOKE=1 it fails unless single-thread packed fault simulation on
// s5378 beats the scalar simulator. The margin asserted here (2x) is far
// below the recorded ~100x so scheduling noise cannot flake the job; the
// measured ratio lives in BenchmarkPackedFaultSim.
func TestPackedFaultSimSpeedSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the packed-vs-scalar speed gate")
	}
	c := gen.MustBuild("s5378")
	faults, _ := fault.Collapse(c)
	vectors := benchVectors(0xbe7c, len(c.PIs), 24)
	s := fault.NewSim(c)
	s.LoadSequence(vectors, nil)
	t0 := time.Now()
	s.DetectAll(faults)
	scalar := time.Since(t0)
	p := fault.NewPackedSim(c)
	p.LoadSequence(vectors, nil)
	t0 = time.Now()
	p.DetectAll(faults)
	packed := time.Since(t0)
	t.Logf("scalar=%v packed=%v speedup=%.1fx", scalar, packed, float64(scalar)/float64(packed))
	if packed*2 > scalar {
		t.Fatalf("packed fault sim not at least 2x faster than scalar: scalar=%v packed=%v", scalar, packed)
	}
}

// BenchmarkPackedLearning is the perf contract of the packed learning
// sweep (PR 6): the exact simulation workload of a Learn call on s5378 —
// captured once with learn.CaptureSweep — replayed through the scalar
// engine route, through the packed 64-injections-per-word route on one
// thread, and through the packed route sharded over one worker per core.
// Every route simulates the same total frame count; only the wall clock
// differs.
func BenchmarkPackedLearning(b *testing.B) {
	c := gen.MustBuild("s5378")
	w := learn.CaptureSweep(c, learn.Options{Parallelism: 1, SkipComb: true})
	want := w.ReplayScalar()
	replay := func(name string, run func() int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if run() != want {
					b.Fatal("replay frame count diverged")
				}
			}
		})
	}
	replay("scalar", w.ReplayScalar)
	replay("packed", func() int { return w.ReplayPacked(64, 1) })
	if n := runtime.GOMAXPROCS(0); n > 1 {
		replay(fmt.Sprintf("packed-workers-%d", n), func() int { return w.ReplayPacked(64, n) })
	}
}

// TestPackedLearningSpeedSmoke is the CI guard for the packed learning
// speedup: with BENCH_SMOKE=1 it fails unless the single-thread packed
// replay of the s5378 learning sweep beats the scalar replay. The margin
// asserted here (3x) sits far below the recorded ~10x so scheduling noise
// cannot flake the job; the measured ratio lives in
// BenchmarkPackedLearning. The two routes must also agree on the total
// simulated frame count — the cheap equivalence check (the full
// bit-identity property runs in the race job as
// TestPackedLearningEquivalence).
func TestPackedLearningSpeedSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the packed-vs-scalar learning speed gate")
	}
	c := gen.MustBuild("s5378")
	w := learn.CaptureSweep(c, learn.Options{Parallelism: 1, SkipComb: true})
	var fs, fp int
	scalar, packed := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 3; i++ { // best of 3, alternating, to shed scheduling noise
		t0 := time.Now()
		fs = w.ReplayScalar()
		if d := time.Since(t0); d < scalar {
			scalar = d
		}
		t0 = time.Now()
		fp = w.ReplayPacked(64, 1)
		if d := time.Since(t0); d < packed {
			packed = d
		}
	}
	t.Logf("scalar=%v packed=%v speedup=%.1fx (%d frames)", scalar, packed, float64(scalar)/float64(packed), fs)
	if fs != fp {
		t.Fatalf("frame count diverged: scalar %d, packed %d", fs, fp)
	}
	if packed*3 > scalar {
		t.Fatalf("packed learning sweep not at least 3x faster than scalar: scalar=%v packed=%v", scalar, packed)
	}
}

// BenchmarkParallelATPG tracks the batch test-generation driver: the full
// fault-dropping run on an s5378 fault sample, serial against one PODEM
// worker per core. Counts and tests are bit-identical for any worker count
// (see TestDriverSerialEquivalence); only the wall clock differs.
func BenchmarkParallelATPG(b *testing.B) {
	c := gen.MustBuild("s5378")
	lr := learn.Learn(c, learn.Options{SkipComb: true})
	var ties []learn.Tie
	ties = append(ties, lr.CombTies...)
	ties = append(ties, lr.SeqTies...)
	faults, _ := fault.Collapse(c)
	if len(faults) > 300 {
		faults = faults[:300]
	}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, p := range counts {
		b.Run(fmt.Sprintf("workers-%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := atpg.Run(c, atpg.RunOptions{
					Faults:      faults,
					Parallelism: p,
					ATPG: atpg.Options{
						BacktrackLimit: 30,
						Mode:           atpg.ModeForbidden,
						DB:             lr.DB,
						Ties:           ties,
						FillSeed:       0x7e57,
					},
				})
				if res.VerifyFailures != 0 {
					b.Fatal("verification failure")
				}
			}
		})
	}
}

// BenchmarkATPGCampaign times the atpg-campaign workload's ATPG on its own,
// without the benchmark harness: the whole collapsed fault lists of s953
// and s1423 with seqatpg's -compact options (forbidden mode, 30 backtracks,
// windows 1/2/4/8, fixed fill seed) at one worker, learning done outside
// the timer. Every iteration must reproduce the campaign's counts, so an
// A/B of two revisions compares identical work.
func BenchmarkATPGCampaign(b *testing.B) {
	type campaign struct {
		c                          *netlist.Circuit
		opt                        atpg.RunOptions
		backtracks, targets, tests int
	}
	var runs []campaign
	for _, w := range []struct {
		name                       string
		backtracks, targets, tests int
	}{{"s953", 19988, 589, 6}, {"s1423", 40343, 1016, 8}} {
		c := gen.MustBuild(w.name)
		lr := learn.Learn(c, learn.Options{})
		faults, _ := fault.Collapse(c)
		runs = append(runs, campaign{c, atpg.RunOptions{
			Faults:       faults,
			Parallelism:  1,
			CompactTests: true,
			ATPG: atpg.Options{
				BacktrackLimit: 30,
				Windows:        []int{1, 2, 4, 8},
				Mode:           atpg.ModeForbidden,
				DB:             lr.DB,
				Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
				FillSeed:       0x7e57,
			},
		}, w.backtracks, w.targets, w.tests})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			res := atpg.Run(r.c, r.opt)
			if res.Backtracks != r.backtracks || res.PodemTargets != r.targets || len(res.Tests) != r.tests || res.VerifyFailures != 0 {
				b.Fatalf("%s: backtracks %d targets %d tests %d verify failures %d, want %d %d %d 0",
					r.c.Name, res.Backtracks, res.PodemTargets, len(res.Tests), res.VerifyFailures,
					r.backtracks, r.targets, r.tests)
			}
		}
	}
}

// BenchmarkAblationForwardVsInjection compares the paper's forward-only
// sequential sweep against the classical 2-injections-per-node
// combinational learner on the same circuit.
func BenchmarkAblationForwardVsInjection(b *testing.B) {
	c := gen.MustBuild("s5378")
	b.Run("sequential-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true})
		}
	})
	b.Run("combinational-injection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := imply.NewDB(c)
			learn.CombinationalParallel(c, db, nil, 1)
		}
	})
}

// BenchmarkAblationTies measures the multiple-node phase with and without
// tie constants.
func BenchmarkAblationTies(b *testing.B) {
	c := gen.MustBuild("s953")
	b.Run("with-ties", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true})
		}
	})
	b.Run("without-ties", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true, DisableTies: true})
		}
	})
}

// BenchmarkAblationEquiv measures learning, which always identifies and
// uses gate equivalences, and equivalence identification alone.
func BenchmarkAblationEquiv(b *testing.B) {
	c := gen.MustBuild("s953")
	b.Run("with-equivalences", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true})
		}
	})
	b.Run("equiv-find-only", func(b *testing.B) {
		lr := learn.Learn(c, learn.Options{SkipComb: true})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			equiv.Find(c, lr.Ties)
		}
	})
}

// BenchmarkAblationEarlyStop measures the repeated-state stopping rule
// (it turns the 50-frame cap into a few frames per stem).
func BenchmarkAblationEarlyStop(b *testing.B) {
	c := gen.MustBuild("s1423")
	b.Run("early-stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true, SingleNodeOnly: true})
		}
	})
	b.Run("no-early-stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			learn.Learn(c, learn.Options{SkipComb: true, SingleNodeOnly: true, DisableEarlyStop: true})
		}
	})
}

// BenchmarkSimulatorThroughput measures the scheduled simulator on one
// stem injection of a large circuit (the learning inner loop).
func BenchmarkSimulatorThroughput(b *testing.B) {
	c := gen.MustBuild("s38417")
	e := sim.NewEngine(c)
	stems := c.Stems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stems[i%len(stems)]
		e.Run([]sim.Injection{{Frame: 0, Node: s, Val: 1}}, sim.Options{})
	}
}

// BenchmarkHarnessTables smoke-runs the full table harness at quick
// bounds, writing to io.Discard (regenerates Tables 1-5 end to end).
func BenchmarkHarnessTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := harness.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := harness.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
		if _, err := harness.Table3(io.Discard, 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := harness.Table4(io.Discard, 2000); err != nil {
			b.Fatal(err)
		}
		if _, err := harness.Table5(io.Discard, harness.Table5Options{
			Circuits:  []string{"s510jcsrre"},
			Limits:    []int{30},
			MaxFaults: 60,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
