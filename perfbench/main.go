// Command perfbench is the repository's benchmark: three seeded workloads
// driven through the layers' public functions, with every timed output
// checked. See README.md in this directory for the workloads, the metric
// catalogue and which layer metric should move which end-to-end metric.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload atpg-campaign --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"pass_s": {"value": 13.9, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 they are the per-layer metrics: the run
// alternates untraced and traced passes, and the per-layer numbers come
// from the traced ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny circuits: every path and check in seconds
	workdir  string // scratch space for per-pass cache directories
	workers  int    // explicit worker count for every kernel call
	conns    int    // service-mix connections
}

// pass is what one pass over a workload's seeded work reports.
type pass struct {
	wall, cpu time.Duration
	spans     *spanAgg           // traced passes only
	values    map[string]float64 // workload-specific figures of this pass
	latencies []sample           // service requests, in completion order
}

// workload is one benchmark workload.
type workload interface {
	// setup builds the inputs and the references the checks compare
	// against. It is timed and repeated for setup_s.
	setup(opt options) error
	// run executes one pass, checking every output it produces.
	run(ck *checker, traced bool) (*pass, error)
	// layers derives the per-layer metrics from a trace run's passes.
	layers(untraced, traced []*pass) map[string]float64
	// close releases what setup acquired.
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "atpg-campaign":
		return &atpgCampaign{}, nil
	case "learn-suite":
		return &learnSuite{}, nil
	case "service-mix":
		return &serviceMix{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want atpg-campaign, learn-suite or service-mix)", name)
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "atpg-campaign, learn-suite or service-mix")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed: one seed gives byte-identical inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny circuits, for tests")
	flag.StringVar(&opt.workdir, "workdir", "", "scratch directory (default: the system temp dir)")
	flag.Parse()
	opt.trace = trace == 1
	opt.workers = 1
	opt.conns = runtime.NumCPU()

	res, err := run(opt, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Set-up is repeated for the setup_s median: at least minSetups times,
// and while the total stays under setupBudget up to maxSetups times, so
// that a set-up of a few milliseconds still gets a steady median.
const (
	minSetups   = 3
	maxSetups   = 21
	setupBudget = time.Second
	minPasses   = 2
)

// run measures one workload and returns the result line; progress and the
// environment record go to log.
func run(opt options, log io.Writer) (*result, error) {
	if opt.workdir == "" {
		opt.workdir = os.TempDir()
	}
	// Every kernel runs at opt.workers, and the in-process workloads get
	// as many Ps: the garbage collector then shares the kernels' CPU
	// instead of depending on whether a neighbour holds another one. On a
	// shared 2-core machine, alternating runs of atpg-campaign took
	// 13.6-13.7 s a pass this way and 13.9-16.3 s with one P per CPU.
	// service-mix gets one P per connection, as a daemon on a machine with
	// that many cores would: with one P, a reader's request spent most of
	// its time waiting for the CPU behind the writer's cold runs.
	procs := opt.workers
	if opt.workload == "service-mix" {
		procs = opt.conns
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	env0 := readEnv()
	var setups []float64
	var w workload
	var spent time.Duration
	for len(setups) < minSetups || (len(setups) < maxSetups && spent < setupBudget) {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(opt.workload); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(opt); err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", opt.workload, err)
		}
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}
	defer w.close()

	ck := &checker{}
	// Untimed warm-up pass: fills caches, grows the heap and pays lazy
	// set-up, and its outputs are checked like every other pass.
	runtime.GC()
	if _, err := w.run(ck, false); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", opt.workload, err)
	}

	var untraced, traced []*pass
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start).Seconds() >= opt.seconds
		if opt.trace {
			if enough && len(untraced) >= 1 && len(traced) >= 1 {
				break
			}
		} else if enough && len(untraced) >= minPasses {
			break
		}
		tr := opt.trace && i%2 == 1
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		p, err := w.run(ck, tr)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", opt.workload, i, err)
		}
		if p.wall == 0 {
			p.wall = time.Since(t0)
		}
		if p.cpu == 0 {
			p.cpu = cpuTime() - c0
		}
		if tr {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	env1 := readEnv()

	info := map[string]any{
		"workload": opt.workload, "seed": opt.seed, "env": env0,
		"loadavg_1m_end": env1.LoadAvg1, "calib_ms_end": env1.CalibMS, "steal_frac": stealFrac(env0, env1),
		"setups": setups, "untraced_walls": walls(untraced), "traced_walls": walls(traced),
		"work": untraced[0].values,
	}
	if opt.trace {
		// Every span's self and total time, summed over the traced passes.
		all := newSpanAgg()
		for _, p := range traced {
			all.merge(p.spans)
		}
		info["span_self_ms"], info["span_total_ms"] = all.self, all.total
	}
	if b, err := json.Marshal(info); err == nil {
		fmt.Fprintf(log, "# run %s\n", b)
	}

	res := &result{
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Correct:   ck.failed == 0 && ck.attempted > 0,
		Metrics:   map[string]metric{},
	}
	if !opt.trace {
		var cpus []float64
		for _, p := range untraced {
			cpus = append(cpus, p.cpu.Seconds())
		}
		vals := map[string]float64{
			"setup_s":     percentile(setups, 50),
			"pass_s":      percentile(walls(untraced), 50),
			"cpu_s":       percentile(cpus, 50),
			"peak_rss_mb": peakRSSMB(),
			"ok_frac":     ck.okFrac(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return res, nil
	}
	vals := w.layers(untraced, traced)
	vals["obs.trace_overhead_frac"] = percentile(walls(traced), 50)/percentile(walls(untraced), 50) - 1
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// walls lists the passes' wall times in seconds.
func walls(ps []*pass) []float64 {
	var xs []float64
	for _, p := range ps {
		xs = append(xs, p.wall.Seconds())
	}
	return xs
}
