package main

// metricDef is one metric the benchmark reports. End-to-end metrics are
// printed with --trace 0, per-layer ones with --trace 1; every workload
// reports every metric of the selected kind. BENCHMARK.json lists the same
// names and units (TestBenchmarkJSONMatches keeps them in step).
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

// Simulated time is deterministic: it is reported in the unit "sim_ms" so it
// is never mistaken for a host time, and a pure speed-up must leave it
// unchanged to the last digit.
var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"run_s", "s", true},
	{"peak_rss_mb", "MB", true},
	{"virtual_ms", "sim_ms", true},
	{"req_p50_ms", "ms", true},
	{"req_p99_ms", "ms", true},
	{"goodput_rps", "1/s", true},
	{"max_rps_at_slo", "1/s", true},

	{"pct_of_hand", "%", false},
	{"failed_frac", "frac", false},
	{"sagert.alloc_mb", "MB", false},
	{"sagert.allocs_per_event", "count", false},
	{"sagert.dispatches", "count", false},
	{"sagert.events_per_s", "1/s", false},
	{"sagert.compute_ms", "sim_ms", false},
	{"sagert.copy_ms", "sim_ms", false},
	{"sagert.comm_ms", "sim_ms", false},
	{"sim.shard_speedup", "ratio", false},
	{"rtl.execute_s", "s", false},
	{"rtl.alloc_mb", "MB", false},
	{"isspl.twiddle_hit_ratio", "frac", false},
	{"model.build_s", "s", false},
	{"model.map_s", "s", false},
	{"gluegen.generate_s", "s", false},
	{"gluegen.threads", "count", false},
	{"twin.build_s", "s", false},
	{"twin.predict_s", "s", false},
	{"twin.err_pct", "%", false},
	{"handcoded.virtual_ms", "sim_ms", false},
	{"handcoded.run_s", "s", false},
	{"codegen.plan_s", "s", false},
	{"codegen.emit_s", "s", false},
	{"codegen.emit_bytes", "bytes", false},
	{"serve.hit_p50_ms", "ms", false},
	{"serve.run_p50_ms", "ms", false},
	{"serve.estimate_p50_ms", "ms", false},
	{"serve.map_p50_ms", "ms", false},
	{"serve.traced_p50_ms", "ms", false},
	{"serve.stream_p50_ms", "ms", false},
	{"serve.cache_hit_ratio", "frac", false},
	{"serve.queue_depth_max", "count", false},
	{"serve.busy_workers_mean", "count", false},
	{"serve.shed", "count", false},
	{"serve.canceled", "count", false},
	{"loadgen.lag_ms_p99", "ms", false},
	{"loadgen.sent", "count", false},
	{"go.gc_cycles", "count", false},
	{"go.gc_cpu_frac", "frac", false},
	{"go.heap_alloc_mb", "MB", false},
	{"trace.overhead_frac", "frac", false},
}

func init() {
	for _, b := range cpuBuckets {
		metricDefs = append(metricDefs, metricDef{"cpu." + b, "frac", false})
	}
}

// layerDefaults sets every per-layer metric a workload does not exercise to
// zero: that layer did no work in this workload. The workload then
// overwrites the ones it measures.
func layerDefaults(r *report) {
	for _, d := range metricDefs {
		if !d.endToEnd {
			r.set(d.name, 0)
		}
	}
}
