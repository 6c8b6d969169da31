package main

import (
	"repro/internal/obs"
)

// spanAgg sums span trees by span name: total duration, self time (the
// duration minus what the span's children cover) and integer attributes.
// Aggregate spans (podem, fault_sim) sum busy time across workers; with
// more than one worker they may exceed wall clock, and their parent's
// self time is then clamped at zero.
type spanAgg struct {
	total map[string]float64 // ms
	self  map[string]float64 // ms
	attrs map[string]int64   // "<span>.<attr>"
}

func newSpanAgg() *spanAgg {
	return &spanAgg{
		total: map[string]float64{},
		self:  map[string]float64{},
		attrs: map[string]int64{},
	}
}

// addTrace folds a whole trace in, its root included.
func (a *spanAgg) addTrace(t *obs.Trace) {
	if j := t.JSON(); j != nil {
		a.addTree(j.Root)
	}
}

// addTree folds one span and its subtree in.
func (a *spanAgg) addTree(s *obs.SpanTree) {
	if s != nil {
		a.addTreeAs(s.Name, s)
	}
}

// addTreeAs is addTree with the span itself counted under another name:
// the daemon names a request's root span after its endpoint, which would
// otherwise merge with the child span of the same name.
func (a *spanAgg) addTreeAs(name string, s *obs.SpanTree) {
	var kids float64
	for _, c := range s.Children {
		kids += c.DurationMS
		a.addTree(c)
	}
	a.total[name] += s.DurationMS
	a.self[name] += max(0, s.DurationMS-kids)
	for k, v := range s.Attrs {
		a.attrs[name+"."+k] += v
	}
}

// merge adds b's sums into a.
func (a *spanAgg) merge(b *spanAgg) {
	for k, v := range b.total {
		a.total[k] += v
	}
	for k, v := range b.self {
		a.self[k] += v
	}
	for k, v := range b.attrs {
		a.attrs[k] += v
	}
}

// selfExcept sums self time over every span name but one.
func (a *spanAgg) selfExcept(name string) float64 {
	var sum float64
	for k, v := range a.self {
		if k != name {
			sum += v
		}
	}
	return sum
}

// medianOver is the median over passes of one per-pass figure.
func medianOver(ps []*pass, f func(p *pass) float64) float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, f(p))
	}
	return percentile(xs, 50)
}

// spanLayers fills the layer metrics every workload reads the same way off
// its traced passes' spans: per pass, the total time of a span name or the
// sum of an attribute, and the median of that over the passes.
func spanLayers(v map[string]float64, traced []*pass) {
	total := func(name string) float64 {
		return medianOver(traced, func(p *pass) float64 { return p.spans.total[name] })
	}
	attr := func(name string) float64 {
		return medianOver(traced, func(p *pass) float64 { return float64(p.spans.attrs[name]) })
	}
	v["bench.parse_ms"] = total("parse")
	v["learn.ms"] = total("learn")
	for _, ph := range []string{"single_node", "equiv", "multi_node", "comb_learn"} {
		v["learn."+ph+"_ms"] = total(ph)
	}
	v["imply.serialize_ms"] = total("serialize")
	v["imply.load_ms"] = total("load")
	v["fault.collapse_ms"] = total("collapse")
	v["fault.sim_ms"] = total("fault_sim")
	v["fault.sweeps"] = attr("fault_sim.sweeps")
	v["atpg.podem_ms"] = total("podem")
	v["atpg.podem_targets"] = attr("podem.targets")
	v["atpg.backtracks"] = attr("podem.backtracks")
	v["atpg.compact_ms"] = total("compact")
	v["atpg.podem_us_per_target"] = ratio(v["atpg.podem_ms"]*1000, v["atpg.podem_targets"])
}
