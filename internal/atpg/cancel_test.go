package atpg

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/learn"
)

// runOptsFor assembles a forbidden-mode run against freshly learned data,
// the configuration every cancellation and seeding test here shares.
func runOptsFor(lr *learn.Result, workers int) RunOptions {
	return RunOptions{
		Parallelism: workers,
		ATPG: Options{
			BacktrackLimit: 1000,
			Windows:        []int{1, 2, 4, 8},
			Mode:           ModeForbidden,
			DB:             lr.DB,
			Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
			FillSeed:       0x7e57,
		},
	}
}

// TestRunCanceledBeforeStart checks a pre-closed Cancel channel stops both
// driver shapes at the first fault boundary: no fault is classified, no
// test is emitted, and the result says so.
func TestRunCanceledBeforeStart(t *testing.T) {
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{})
	done := make(chan struct{})
	close(done)
	for _, workers := range []int{1, 4} {
		opt := runOptsFor(lr, workers)
		opt.Cancel = done
		res := Run(c, opt)
		if !res.Canceled {
			t.Fatalf("workers=%d: run with closed cancel channel not marked canceled: %+v", workers, res)
		}
		if res.Detected != 0 || res.Untestable != 0 || res.Aborted != 0 || len(res.Tests) != 0 {
			t.Fatalf("workers=%d: canceled run classified faults: %+v", workers, res)
		}
		for i, st := range res.Status {
			if st != StatusPending {
				t.Fatalf("workers=%d: fault %d status = %v, want pending", workers, i, st)
			}
		}
	}
}

// TestRunNilCancelCompletes checks the default (nil channel) never trips
// the cancellation path.
func TestRunNilCancelCompletes(t *testing.T) {
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{})
	res := Run(c, runOptsFor(lr, 1))
	if res.Canceled {
		t.Fatalf("uncancelled run marked canceled: %+v", res)
	}
	if res.Detected+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("classification does not cover the fault list: %+v", res)
	}
	for i, st := range res.Status {
		if st == StatusPending {
			t.Fatalf("fault %d left pending in a completed run", i)
		}
	}
}

// TestSeedTestsShrinkPodemWork replays a scratch run's own tests as seeds
// for a second run on the same circuit: replay must detect faults up front,
// PODEM must see strictly fewer targets, and coverage must not drop. The
// seeded run must also stay bit-identical between serial and parallel
// drivers.
func TestSeedTestsShrinkPodemWork(t *testing.T) {
	c := gen.MustBuild("s382")
	lr := learn.Learn(c, learn.Options{})

	scratch := Run(c, runOptsFor(lr, 1))
	if len(scratch.Tests) == 0 {
		t.Fatal("scratch run generated no tests to seed with")
	}

	seeded := runOptsFor(lr, 1)
	seeded.SeedTests = scratch.Tests
	res := Run(c, seeded)
	if res.SeedDetected == 0 || res.SeedTestsKept == 0 {
		t.Fatalf("seed replay detected nothing: %+v", res)
	}
	if res.PodemTargets >= scratch.PodemTargets {
		t.Fatalf("podem targets = %d with seeds, %d from scratch — seeding saved no search",
			res.PodemTargets, scratch.PodemTargets)
	}
	if res.Detected < scratch.Detected {
		t.Fatalf("seeded run detected %d < scratch %d", res.Detected, scratch.Detected)
	}
	if res.Detected+res.Untestable+res.Aborted != res.Total {
		t.Fatalf("seeded classification does not cover the fault list: %+v", res)
	}

	par := runOptsFor(lr, 4)
	par.SeedTests = scratch.Tests
	pres := Run(c, par)
	if pres.Detected != res.Detected || pres.Untestable != res.Untestable ||
		pres.Aborted != res.Aborted || pres.Backtracks != res.Backtracks ||
		len(pres.Tests) != len(res.Tests) {
		t.Fatalf("seeded parallel run diverged from serial: %+v vs %+v", pres, res)
	}
}
