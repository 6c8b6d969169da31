package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestInputsRepeatForASeed(t *testing.T) {
	for _, name := range []string{"s382", "s953", "scfjisdre"} {
		a, err := variants(name, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := variants(name, 7, 4)
		c, _ := variants(name, 8, 4)
		base, _ := baseText(name)
		for i := range a {
			if !bytes.Equal(a[i].text, b[i].text) {
				t.Errorf("%s: seed 7 gave two different texts for variant %d", name, i)
			}
			if bytes.Equal(a[i].text, base) {
				t.Errorf("%s variant %d equals the base circuit", name, i)
			}
			if _, err := a[i].parse(); err != nil {
				t.Errorf("%s variant %d: %v", name, i, err)
			}
			for j := range i {
				if bytes.Equal(a[i].text, a[j].text) {
					t.Errorf("%s: variants %d and %d are identical", name, i, j)
				}
			}
		}
		same := true
		for i := range a {
			same = same && bytes.Equal(a[i].text, c[i].text)
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same variants", name)
		}
	}
}

func TestScriptRepeatsForASeed(t *testing.T) {
	sh := scriptShape{conns: 2, capacity: 4, colds: 8, reloads: 16, body: 80, learnFast: 16, atpgFast: 8}
	a, err := makeScript(11, sh)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeScript(11, sh)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 11 gave two different scripts")
	}
	counts := classCounts(a)
	if counts["cold"] != 8 || counts["reload"] != 16 || counts["learn-body"] < 80 {
		t.Errorf("class counts %v", counts)
	}
	if a.want.FastMisses != 16 || a.want.DiskHits != 16 || a.want.Misses != 16 {
		t.Errorf("predicted counts %+v", a.want)
	}
}

// TestScriptWorkIndependentOfConnections checks that a pass sends the same
// requests and predicts the same store counts whatever the connection
// count, so the mix does not change with the machine's core count.
func TestScriptWorkIndependentOfConnections(t *testing.T) {
	sh := scriptShape{capacity: 4, colds: 8, reloads: 16, body: 80, learnFast: 16, atpgFast: 8}
	var want map[string]int
	var wantStore storeCounts
	for _, conns := range []int{1, 2, 3, 8} {
		sh.conns = conns
		sc, err := makeScript(5, sh)
		if err != nil {
			t.Fatal(err)
		}
		got := classCounts(sc)
		if want == nil {
			want, wantStore = got, sc.want
			continue
		}
		if !reflect.DeepEqual(got, want) || sc.want != wantStore {
			t.Errorf("%d connections: classes %v store %+v, want %v %+v", conns, got, sc.want, want, wantStore)
		}
	}
}

// classCounts counts a script's requests by class.
func classCounts(sc *script) map[string]int {
	counts := map[string]int{}
	for _, conn := range sc.conns {
		for _, r := range conn {
			counts[r.class]++
		}
	}
	return counts
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range f.Workloads {
		wls = append(wls, w.Name)
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if got := strings.Join(wls, ","); got != "atpg-campaign,learn-suite,service-mix" {
		t.Errorf("workloads %s", got)
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, catalogue %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: 1, seconds: 0, trace: trace, smoke: true,
		workdir: t.TempDir(), workers: 1, conns: 2,
	}
}

// TestSmoke runs every workload on tiny circuits, untraced and traced,
// through every path and check of a real run.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"atpg-campaign", "learn-suite", "service-mix"} {
		for _, trace := range []bool{false, true} {
			res, err := run(smokeOptions(t, wl, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", wl, trace, m.name, v)
				}
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", wl, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestServiceScriptAnyConnectionCount checks the store counters the script
// predicts against a real daemon for a lone connection and for three.
func TestServiceScriptAnyConnectionCount(t *testing.T) {
	for _, conns := range []int{1, 3} {
		opt := smokeOptions(t, "service-mix", false)
		opt.conns = conns
		w := &serviceMix{}
		if err := w.setup(opt); err != nil {
			t.Fatal(err)
		}
		ck := &checker{}
		if _, err := w.run(ck, false); err != nil {
			t.Fatal(err)
		}
		w.close()
		if ck.failed != 0 {
			t.Errorf("%d connections: %d of %d checks failed", conns, ck.failed, ck.attempted)
		}
	}
}

// TestChecksCatchWrongOutputs corrupts one expected count per workload and
// expects the next pass to report ok_frac below 1.
func TestChecksCatchWrongOutputs(t *testing.T) {
	corrupt := map[string]func(w workload){
		"atpg-campaign": func(w workload) { w.(*atpgCampaign).want[0].backtracks++ },
		"learn-suite":   func(w workload) { w.(*learnSuite).want[1].relations++ },
		"service-mix":   func(w workload) { w.(*serviceMix).atpgRef[keyHot].Detected++ },
	}
	for wl, f := range corrupt {
		w, _ := newWorkload(wl)
		if err := w.setup(smokeOptions(t, wl, false)); err != nil {
			t.Fatal(err)
		}
		ck := &checker{}
		if _, err := w.run(ck, false); err != nil {
			t.Fatal(err)
		}
		if ck.okFrac() != 1 {
			t.Fatalf("%s: clean pass ok_frac = %v", wl, ck.okFrac())
		}
		f(w)
		if _, err := w.run(ck, false); err != nil {
			t.Fatal(err)
		}
		w.close()
		if ck.okFrac() >= 1 {
			t.Errorf("%s: corrupted expectation went unnoticed (ok_frac %v)", wl, ck.okFrac())
		}
	}
}
