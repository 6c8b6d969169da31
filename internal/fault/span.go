package fault

import (
	"time"

	"repro/internal/obs"
)

// Span attachment: the ATPG driver (or the fault-sim endpoint) hands a
// ParallelSim an aggregate obs span; every good-machine load and every
// detection sweep adds its elapsed time and batch/fault counts to it. The
// span is recorded at sweep granularity — one timing call per Detect,
// never per frame or per batch — so the packed hot loops stay untouched,
// and a nil span costs one branch. The worker PackedSims run unobserved:
// the coordinator records the whole sweep once.

// SetSpan attaches sp (may be nil to detach) to p's subsequent sweeps.
// Only the coordinator records; the worker clones stay unobserved.
func (p *ParallelSim) SetSpan(sp *obs.Span) { p.span = sp }

// record adds one sweep's cost to the attached span.
func record(sp *obs.Span, start time.Time, faults, frames int) {
	if sp == nil {
		return
	}
	sp.AddTime(time.Since(start))
	sp.Add("sweeps", 1)
	sp.Add("faults", int64(faults))
	sp.Add("frames", int64(frames))
}
