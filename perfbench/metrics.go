package main

// metricDef is one entry of the metric catalogue; BENCHMARK.json at the
// repository root lists the same names and units (a test keeps the two
// in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // median of the repeated set-ups
	{"pass_s", "s", "lower"},       // median wall time of one pass over the seeded work
	{"cpu_s", "s", "lower"},        // median process CPU time of one pass
	{"peak_rss_mb", "MB", "lower"}, // peak resident set of the run
	{"ok_frac", "fraction", "higher"},
}

// serviceClasses are the service-mix request classes, in the order the
// README describes them.
var serviceClasses = []string{"learn-fast", "learn-body", "atpg-fast", "reload", "cold"}

// perLayer are reported by a trace run. Workload-level figures come from
// its untraced passes, layer figures from its traced passes; a layer a
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Workload-level figures, untraced.
		{"faults_per_s", "1/s", "higher"},
		{"test_coverage", "fraction", "higher"},
		{"aborted_frac", "fraction", "lower"},
		{"learn_s", "s", "lower"},
		{"req_per_s", "1/s", "higher"},
		{"p50_ms", "ms", "lower"},
		{"p90_ms", "ms", "lower"},
		{"p99_ms", "ms", "lower"},

		// Parse and content addressing.
		{"bench.parse_ms", "ms", "lower"},
		{"store.fingerprint_ms", "ms", "lower"},

		// The content-addressed store, learn and test-set caches summed.
		{"store.mem_hits", "count", "higher"},
		{"store.disk_hits", "count", "higher"},
		{"store.misses", "count", "lower"},
		{"store.coalesced", "count", "higher"},
		{"store.evictions", "count", "lower"},
		{"store.disk_bytes_written", "bytes", "lower"},
		{"store.disk_bytes_read", "bytes", "lower"},

		// Sequential learning.
		{"learn.ms", "ms", "lower"},
		{"learn.single_node_ms", "ms", "lower"},
		{"learn.equiv_ms", "ms", "lower"},
		{"learn.multi_node_ms", "ms", "lower"},
		{"learn.comb_learn_ms", "ms", "lower"},
		{"learn.sims", "count", "lower"},
		{"learn.relations", "count", "higher"},
		{"learn.alloc_mb", "MB", "lower"},

		// Snapshot codec.
		{"imply.serialize_ms", "ms", "lower"},
		{"imply.load_ms", "ms", "lower"},
		{"imply.snapshot_kb", "KB", "lower"},

		// Fault collapsing and fault simulation.
		{"fault.collapse_ms", "ms", "lower"},
		{"fault.sim_ms", "ms", "lower"},
		{"fault.sweeps", "count", "lower"},

		// ATPG.
		{"atpg.podem_ms", "ms", "lower"},
		{"atpg.podem_targets", "count", "lower"},
		{"atpg.podem_us_per_target", "us", "lower"},
		{"atpg.backtracks", "count", "lower"},
		{"atpg.alloc_mb", "MB", "lower"},
		{"atpg.alloc_kb_per_target", "KB", "lower"},
		{"atpg.gc_cycles", "count", "lower"},
		{"atpg.resolved_frac", "fraction", "higher"},
		{"atpg.compact_ms", "ms", "lower"},
		{"atpg.tests", "count", "lower"},

		// The daemon.
		{"server.queue_wait_ms", "ms", "lower"},
		{"server.handler_ms", "ms", "lower"},
		{"server.shed", "count", "lower"},
		{"server.fast_misses", "count", "lower"},

		// The client and HTTP.
		{"seqlearn.http_overhead_ms", "ms", "lower"},
		{"seqlearn.retries", "count", "lower"},
	}
	for _, c := range serviceClasses {
		defs = append(defs, metricDef{"seqlearn." + c + "_p50_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"obs.trace_overhead_frac", "fraction", "lower"},
		metricDef{"obs.span_coverage_frac", "fraction", "higher"},
	)
}()
