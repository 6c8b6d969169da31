package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/learn"
	"repro/internal/obs"
)

// atpgCampaign is the atpg-campaign workload: bench.Parse → learn.Learn →
// fault.Collapse → atpg.Run over the whole collapsed fault list of s953
// and s1423, their nets renamed by the seed, with seqatpg's options. PODEM
// does nearly all the work.
type atpgCampaign struct {
	workers int
	inputs  []input
	want    []campaignCounts // from the first pass; every later pass must match
}

// campaignCounts are the deterministic outputs of one circuit's campaign.
type campaignCounts struct {
	relations, faults, detected, untestable, aborted int
	backtracks, tests, podemTargets, compacted       int
}

func (w *atpgCampaign) setup(opt options) error {
	w.workers = opt.workers
	names := []string{"s953", "s1423"}
	if opt.smoke {
		names = []string{"figure2", "s382"}
	}
	for _, n := range names {
		in, err := renamed(n, opt.seed)
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, in)
	}
	return nil
}

func (w *atpgCampaign) close() {}

// campaignOptions are seqatpg's defaults plus -compact: forbidden mode, 30
// backtracks per window, windows 1/2/4/8 and the fixed fill seed.
func campaignOptions(lr *learn.Result, faults []fault.Fault, workers int, span *obs.Span) atpg.RunOptions {
	return atpg.RunOptions{
		Faults:       faults,
		Parallelism:  workers,
		CompactTests: true,
		Span:         span,
		ATPG: atpg.Options{
			BacktrackLimit: 30,
			Windows:        []int{1, 2, 4, 8},
			Mode:           atpg.ModeForbidden,
			DB:             lr.DB,
			Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
			FillSeed:       0x7e57,
		},
	}
}

func (w *atpgCampaign) run(ck *checker, traced bool) (*pass, error) {
	p := &pass{values: map[string]float64{}}
	if traced {
		p.spans = newSpanAgg()
	}
	var got []campaignCounts
	for _, in := range w.inputs {
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(in.name, "op")
		}
		root := tr.Root()
		var ms0, ms1 runtime.MemStats
		c0, t0 := cpuTime(), time.Now()

		sp := root.Start("parse")
		c, err := in.parse()
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = root.Start("learn")
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		lr := learn.Learn(c, learn.Options{Parallelism: w.workers, Span: sp})
		if traced {
			runtime.ReadMemStats(&ms1)
			p.values["learn.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		}
		sp.End()
		sp = root.Start("collapse")
		faults, _ := fault.Collapse(c)
		sp.End()
		sp = root.Start("atpg")
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		res := atpg.Run(c, campaignOptions(lr, faults, w.workers, sp))
		if traced {
			runtime.ReadMemStats(&ms1)
			p.values["atpg.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			p.values["atpg.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		}
		sp.End()
		root.End()
		p.wall += time.Since(t0)
		p.cpu += cpuTime() - c0
		if traced {
			p.spans.addTrace(tr)
		}

		ck.equal(in.name+" verify failures", res.VerifyFailures, 0)
		ck.check(!res.Canceled, "%s: run canceled", in.name)
		cc := campaignCounts{
			relations: lr.DB.Len(), faults: res.Total, detected: res.Detected,
			untestable: res.Untestable, aborted: res.Aborted, backtracks: res.Backtracks,
			tests: len(res.Tests), podemTargets: res.PodemTargets, compacted: res.TestsCompacted,
		}
		got = append(got, cc)
		p.values["faults"] += float64(res.Total)
		p.values["detected"] += float64(res.Detected)
		p.values["untestable"] += float64(res.Untestable)
		p.values["aborted"] += float64(res.Aborted)
		p.values["backtracks"] += float64(res.Backtracks)
		p.values["learn.sims"] += float64(lr.Stats.Sims)
		p.values["learn.relations"] += float64(lr.DB.Len())
		p.values["atpg.tests"] += float64(len(res.Tests))
	}
	if w.want == nil {
		w.want = got
	} else {
		for i, cc := range got {
			ck.equal(fmt.Sprintf("%s counts vs first pass", w.inputs[i].name), cc, w.want[i])
		}
	}
	return p, nil
}

func (w *atpgCampaign) layers(untraced, traced []*pass) map[string]float64 {
	v := map[string]float64{}
	var fps []float64
	for _, p := range untraced {
		fps = append(fps, p.values["faults"]/p.wall.Seconds())
	}
	v["faults_per_s"] = percentile(fps, 50)
	if len(untraced) > 0 {
		q := untraced[0].values
		v["test_coverage"] = ratio(q["detected"], q["faults"]-q["untestable"])
		v["aborted_frac"] = ratio(q["aborted"], q["faults"])
	}
	tracedLayers(v, traced, "op")
	targets := v["atpg.podem_targets"]
	v["atpg.resolved_frac"] = 1 - ratio(firstValue(traced, "aborted"), targets)
	v["atpg.alloc_kb_per_target"] = ratio(v["atpg.alloc_mb"]*1024, targets)
	return v
}

// firstValue is a deterministic per-pass figure, read from the first pass.
func firstValue(ps []*pass, key string) float64 {
	if len(ps) == 0 {
		return 0
	}
	return ps[0].values[key]
}

// tracedLayers fills the layer metrics of the in-process workloads: the
// span-derived ones, the per-pass figures the workload recorded, and the
// share of the pass's wall clock the layers' self times cover. rootName is
// the per-operation root span, whose self time is the benchmark's own loop
// and not a layer.
func tracedLayers(v map[string]float64, traced []*pass, rootName string) {
	spanLayers(v, traced)
	for _, k := range []string{"learn.sims", "learn.relations", "learn.alloc_mb",
		"atpg.alloc_mb", "atpg.gc_cycles", "atpg.tests", "imply.snapshot_kb"} {
		v[k] = medianOver(traced, func(p *pass) float64 { return p.values[k] })
	}
	v["obs.span_coverage_frac"] = medianOver(traced, func(p *pass) float64 {
		return ratio(p.spans.selfExcept(rootName), ms(p.wall))
	})
}
