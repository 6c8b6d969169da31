package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atpg"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
	"repro/seqlearn"
)

// serviceMix is the service-mix workload: one in-process seqlearnd on
// loopback, with a fresh cache directory per pass and an LRU smaller than
// the working set, driven by a closed loop of seqlearn.Client connections
// (each waits for its reply before sending the next request) running the
// seeded script of script.go.
type serviceMix struct {
	opt      options
	shape    scriptShape
	params   server.ATPGParams
	circuits []*netlist.Circuit // by key
	names    []string
	learnRef []learnCounts // by key
	atpgRef  []atpgCounts  // by key; zero for the big circuit
	script   *script
	template string // cache dir holding the primed artifacts
}

// learnCounts are the counts a learn response reports.
type learnCounts struct {
	Relations, FFFF, GateFF, CrossFrame, CombTies, SeqTies, EquivClasses int
}

// atpgCounts are the counts an ATPG response reports.
type atpgCounts struct {
	Total, Detected, Untestable, Aborted, Backtracks, Tests, Compacted, Podem, VerifyFailures int
}

// sample is one timed request.
type sample struct {
	class string
	lat   time.Duration
}

// coldFaults bounds the cold class's ATPG run to a prefix of the fault
// list: a cold request is then a learning run plus about a third as much
// PODEM work.
const coldFaults = 8

func (w *serviceMix) setup(opt options) error {
	w.opt = opt
	big, base := "s5378", "s953"
	if opt.smoke {
		big, base = "figure2", "s382"
	}
	w.shape = scriptShape{
		conns: max(1, opt.conns), capacity: 4, colds: 8, reloads: 16,
		body: 80, learnFast: 16, atpgFast: 8,
	}
	lp := server.LearnParams{Workers: opt.workers}
	w.params = server.ATPGParams{
		Learn: lp, Mode: "forbidden", Backtracks: 30, MaxFaults: coldFaults,
		MaxWindow: 8, Workers: opt.workers, Compact: true,
	}

	bigIn, err := variants(big, opt.seed, 1)
	if err != nil {
		return err
	}
	rest, err := variants(base, opt.seed, 1+w.shape.colds)
	if err != nil {
		return err
	}
	for _, in := range append(bigIn, rest...) {
		c, err := in.parse()
		if err != nil {
			return err
		}
		w.circuits = append(w.circuits, c)
		w.names = append(w.names, in.name)
	}
	if w.script, err = makeScript(opt.seed, w.shape); err != nil {
		return err
	}

	// Every key's reference comes from the same in-process store path the
	// daemon takes. The template store's cache holds what priming loads:
	// the big and the hot circuit's artifacts and the hot test set. The
	// cold variants go through a memory-only store, so that the daemon
	// still meets them as misses.
	if w.template, err = os.MkdirTemp(opt.workdir, "service-template-"); err != nil {
		return err
	}
	tmpl := store.New(store.Options{Dir: w.template})
	mem := store.New(store.Options{})
	w.learnRef = make([]learnCounts, len(w.circuits))
	w.atpgRef = make([]atpgCounts, len(w.circuits))
	for k, c := range w.circuits {
		st := mem
		if k < keyCold {
			st = tmpl
		}
		art, _, err := st.Learn(c, lp.Options())
		if err != nil {
			return fmt.Errorf("reference %s: %w", w.names[k], err)
		}
		w.learnRef[k] = learnCountsOf(art)
		if k == keyBig {
			continue
		}
		ropt, err := w.params.RunOptions(art)
		if err != nil {
			return err
		}
		tart, _, _, err := st.ATPG(store.ATPGRequest{Artifact: art, Options: ropt})
		if err != nil {
			return fmt.Errorf("reference %s tests: %w", w.names[k], err)
		}
		w.atpgRef[k] = runCounts(&tart.Result)
	}
	return nil
}

func learnCountsOf(art *store.Artifact) learnCounts {
	ffff, gateFF, _ := art.DB.Counts(true)
	return learnCounts{
		Relations: art.DB.Len(), FFFF: ffff, GateFF: gateFF, CrossFrame: art.DB.CrossFrame(),
		CombTies: len(art.CombTies), SeqTies: len(art.SeqTies), EquivClasses: art.EquivClasses,
	}
}

func runCounts(r *atpg.RunResult) atpgCounts {
	return atpgCounts{
		Total: r.Total, Detected: r.Detected, Untestable: r.Untestable, Aborted: r.Aborted,
		Backtracks: r.Backtracks, Tests: len(r.Tests), Compacted: r.TestsCompacted, Podem: r.PodemTargets,
		VerifyFailures: r.VerifyFailures,
	}
}

func (w *serviceMix) close() {
	if w.template != "" {
		os.RemoveAll(w.template)
	}
}

// outcome is one completed request, checked after the pass.
type outcome struct {
	req   request
	lat   time.Duration
	learn *seqlearn.ServiceLearnResult
	atpg  *seqlearn.ServiceATPGResult
	err   error
}

// countingTransport counts round trips and 428 answers, from which the
// client's retries follow.
type countingTransport struct {
	inner        http.RoundTripper
	trips, fp428 atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.trips.Add(1)
	resp, err := t.inner.RoundTrip(r)
	if err == nil && resp.StatusCode == http.StatusPreconditionRequired {
		t.fp428.Add(1)
	}
	return resp, err
}

// daemon is one pass's in-process seqlearnd.
type daemon struct {
	dir   string
	hs    *http.Server
	base  string
	done  chan error
	trans *countingTransport
	hc    *http.Client
}

// startDaemon copies the template cache into a fresh directory and serves
// a daemon over it on a loopback port.
func (w *serviceMix) startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp(w.opt.workdir, "service-pass-")
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, done: make(chan error, 1)}
	if err := copyTree(w.template, dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{
		Store:         store.Options{Dir: dir, MaxEntries: w.shape.capacity},
		MaxConcurrent: w.shape.conns,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.hs = &http.Server{Handler: srv}
	go func() { d.done <- d.hs.Serve(ln) }()
	d.base = "http://" + ln.Addr().String()
	// One shared transport caps the TCP connections at the loop's
	// connection count.
	d.trans = &countingTransport{inner: &http.Transport{
		MaxConnsPerHost:     w.shape.conns,
		MaxIdleConnsPerHost: w.shape.conns,
	}}
	d.hc = &http.Client{Transport: d.trans}
	return d, nil
}

// stop shuts the daemon down, waits for it, and removes its cache.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.trans.inner.(*http.Transport).CloseIdleConnections()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// client returns a client on the daemon's shared transport.
func (d *daemon) client() *seqlearn.Client {
	cl := seqlearn.NewClient(d.base)
	cl.SetHTTPClient(d.hc)
	return cl
}

// counters are the daemon's cumulative counters a pass reads before and
// after its script.
type counters struct {
	store                 storeCounts
	diskRead, diskWritten float64
	shed                  int64
}

// counters reads the store and server counters the script predicts from
// /v1/stats, and the disk byte meters from /metrics.
func (d *daemon) counters(ctx context.Context) (counters, error) {
	st, err := d.client().Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	c := st.Cache
	out := counters{
		store: storeCounts{
			MemHits:    c.Hits + c.ATPGHits,
			DiskHits:   c.DiskHits + c.ATPGDiskHits,
			Misses:     c.Misses + c.ATPGMisses,
			Coalesced:  c.Coalesced + c.ATPGCoalesced,
			Evictions:  c.Evictions + c.ATPGEvictions,
			FastMisses: st.FastMisses,
		},
		shed: st.Shed,
	}
	out.diskRead, out.diskWritten, err = d.diskBytes(ctx)
	return out, err
}

// diskBytes scrapes the store's disk byte counters from /metrics.
func (d *daemon) diskBytes(ctx context.Context) (read, written float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, perr := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if perr != nil {
			continue
		}
		switch name {
		case "seqlearnd_disk_read_bytes_total":
			read = v
		case "seqlearnd_disk_written_bytes_total":
			written = v
		}
	}
	return read, written, nil
}

// send issues one scripted request on a connection's client.
func (w *serviceMix) send(ctx context.Context, d *daemon, cl *seqlearn.Client, r request, traced bool) outcome {
	o := outcome{req: r}
	c := w.circuits[r.key]
	ap := w.params
	ap.Learn.Trace = traced
	t0 := time.Now()
	switch r.class {
	case "learn-body":
		// A fresh client knows no fingerprint, so it uploads the netlist.
		o.learn, o.err = d.client().Learn(ctx, c, ap.Learn)
	case "learn-fast", "reload":
		o.learn, o.err = cl.Learn(ctx, c, ap.Learn)
	case "atpg-fast", "cold":
		o.atpg, o.err = cl.GenerateTests(ctx, c, ap)
	}
	o.lat = time.Since(t0)
	return o
}

func (w *serviceMix) run(ck *checker, traced bool) (*pass, error) {
	ctx := context.Background()
	d, err := w.startDaemon()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: daemon stop:", err)
		}
	}()
	if err := d.client().WaitHealthy(ctx, 10*time.Second); err != nil {
		return nil, err
	}
	clients := make([]*seqlearn.Client, w.shape.conns)
	for i := range clients {
		clients[i] = d.client()
	}

	// Priming, untimed: load the big circuit, let every connection learn
	// the hot circuit's fingerprint, and load the hot test set.
	prime := []outcome{w.send(ctx, d, nil, request{class: "learn-body", key: keyBig, wantCache: "disk"}, false)}
	for i, cl := range clients {
		want := "hit"
		if i == 0 {
			want = "disk"
		}
		prime = append(prime, w.send(ctx, d, cl, request{class: "learn-fast", key: keyHot, wantCache: want}, false))
	}
	prime = append(prime, w.send(ctx, d, clients[0], request{class: "atpg-fast", key: keyHot, wantCache: "hit", wantTests: "disk"}, false))
	for _, o := range prime {
		w.verify(ck, o)
	}
	before, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	trips0, fp0 := d.trans.trips.Load(), d.trans.fp428.Load()

	// The closed loop: each connection sends its next request when the
	// previous answer arrives.
	outs := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	c0, t0 := cpuTime(), time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *seqlearn.Client) {
			defer wg.Done()
			for _, r := range w.script.conns[i] {
				outs[i] = append(outs[i], w.send(ctx, d, cl, r, traced))
			}
		}(i, cl)
	}
	wg.Wait()
	p := &pass{wall: time.Since(t0), cpu: cpuTime() - c0, values: map[string]float64{}}
	trips, fp428 := d.trans.trips.Load()-trips0, d.trans.fp428.Load()-fp0

	after, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	a, b := after.store, before.store
	delta := storeCounts{
		MemHits: a.MemHits - b.MemHits, DiskHits: a.DiskHits - b.DiskHits,
		Misses: a.Misses - b.Misses, Coalesced: a.Coalesced - b.Coalesced,
		Evictions: a.Evictions - b.Evictions, FastMisses: a.FastMisses - b.FastMisses,
	}
	ck.equal("store counts vs script", delta, w.script.want)
	requests := 0
	byClass := map[string]*spanAgg{}
	for _, c := range serviceClasses {
		byClass[c] = newSpanAgg()
	}
	for _, conn := range outs {
		for _, o := range conn {
			requests++
			w.verify(ck, o)
			p.latencies = append(p.latencies, sample{class: o.req.class, lat: o.lat})
			if o.req.class == "cold" {
				p.values["learn.relations"] += float64(w.learnRef[o.req.key].Relations)
			}
			if tr := o.trace(); tr != nil {
				byClass[o.req.class].addTreeAs("server", tr.Root)
				p.values["seqlearn.http_overhead_ms"] += ms(o.lat) - tr.Root.DurationMS
			}
		}
	}
	p.values["requests"] = float64(requests)
	p.values["store.disk_bytes_read"] = after.diskRead - before.diskRead
	p.values["store.disk_bytes_written"] = after.diskWritten - before.diskWritten
	p.values["server.shed"] = float64(after.shed - before.shed)
	p.values["server.fast_misses"] = float64(delta.FastMisses)
	p.values["seqlearn.retries"] = float64(trips - int64(requests) - fp428)
	p.values["store.mem_hits"] = float64(delta.MemHits)
	p.values["store.disk_hits"] = float64(delta.DiskHits)
	p.values["store.misses"] = float64(delta.Misses)
	p.values["store.coalesced"] = float64(delta.Coalesced)
	p.values["store.evictions"] = float64(delta.Evictions)
	if traced {
		p.spans = newSpanAgg()
		for _, agg := range byClass {
			p.spans.merge(agg)
		}
		p.values["store.fingerprint_ms"] = byClass["learn-body"].self["learn"]
		p.values["imply.load_ms"] = byClass["reload"].self["learn"]
		p.values["learn.ms"] = byClass["cold"].total["learn"]
	}
	return p, nil
}

// trace is the server's span tree of a traced response.
func (o outcome) trace() *obs.TraceJSON {
	switch {
	case o.learn != nil:
		return o.learn.Trace
	case o.atpg != nil:
		return o.atpg.Trace
	}
	return nil
}

// verify checks one response against the in-process reference and the
// script's predicted cache outcome.
func (w *serviceMix) verify(ck *checker, o outcome) {
	what := fmt.Sprintf("%s %s", o.req.class, w.names[o.req.key])
	if o.err != nil {
		ck.check(false, "%s: %v", what, o.err)
		return
	}
	if o.learn != nil {
		r := o.learn
		ck.equal(what+" cache", r.Cache, o.req.wantCache)
		ck.equal(what+" counts", learnCounts{
			Relations: r.Relations, FFFF: r.FFFF, GateFF: r.GateFF, CrossFrame: r.CrossFrame,
			CombTies: r.CombTies, SeqTies: r.SeqTies, EquivClasses: r.EquivClasses,
		}, w.learnRef[o.req.key])
		return
	}
	// Every test must pass the daemon's own fault-simulation check. The
	// references carry their verify failures in their counts, so a bad
	// reference fails either this check or the comparison.
	r := o.atpg
	ck.equal(what+" cache", r.Cache, o.req.wantCache)
	ck.equal(what+" tests cache", r.TestsCache, o.req.wantTests)
	ck.equal(what+" verify failures", r.VerifyFailures, 0)
	ck.equal(what+" counts", atpgCounts{
		Total: r.Total, Detected: r.Detected, Untestable: r.Untestable, Aborted: r.Aborted,
		Backtracks: r.Backtracks, Tests: r.Tests, Compacted: r.TestsCompacted, Podem: r.PodemFaults,
		VerifyFailures: r.VerifyFailures,
	}, w.atpgRef[o.req.key])
}

func (w *serviceMix) layers(untraced, traced []*pass) map[string]float64 {
	v := map[string]float64{}
	var rps []float64
	var all []float64
	perClass := map[string][]float64{}
	for _, p := range untraced {
		rps = append(rps, p.values["requests"]/p.wall.Seconds())
		for _, s := range p.latencies {
			all = append(all, ms(s.lat))
			perClass[s.class] = append(perClass[s.class], ms(s.lat))
		}
	}
	v["req_per_s"] = percentile(rps, 50)
	v["p50_ms"] = percentile(all, 50)
	v["p90_ms"] = percentile(all, 90)
	v["p99_ms"] = percentile(all, 99)
	for _, c := range serviceClasses {
		v["seqlearn."+c+"_p50_ms"] = percentile(perClass[c], 50)
	}

	spanLayers(v, traced)
	for _, k := range []string{
		"store.mem_hits", "store.disk_hits", "store.misses", "store.coalesced", "store.evictions",
		"store.disk_bytes_read", "store.disk_bytes_written", "server.shed", "server.fast_misses",
		"seqlearn.retries", "seqlearn.http_overhead_ms", "store.fingerprint_ms", "imply.load_ms",
		"learn.ms", "learn.relations",
	} {
		v[k] = medianOver(traced, func(p *pass) float64 { return p.values[k] })
	}
	v["server.queue_wait_ms"] = medianOver(traced, func(p *pass) float64 { return p.spans.total["queue_wait"] })
	v["server.handler_ms"] = medianOver(traced, func(p *pass) float64 { return p.spans.self["server"] })
	// The share of the summed request time that the daemon's spans cover;
	// the rest is seqlearn.http_overhead_ms. Requests overlap, so the sum
	// is request time, not the pass's wall clock.
	v["obs.span_coverage_frac"] = medianOver(traced, func(p *pass) float64 {
		var lat float64
		for _, s := range p.latencies {
			lat += ms(s.lat)
		}
		return ratio(p.spans.total["server"], lat)
	})
	return v
}

// copyTree copies the regular files under src into dst, keeping the
// relative layout.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
