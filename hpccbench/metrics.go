package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (main_test.go checks that); moves says
// which end-to-end metric, on which workload, a per-layer metric should
// move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the untraced run's metrics: medians over the run's
// requests, one request being one `hpcc run linpack/delta` (e4-cold),
// one sweep of sweepPoints jobs (sweep-fleet) or one full report
// (report-warm).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median of the set-ups: warm-up (e4-cold), job draw, worker start and warm-up sweep (sweep-fleet), cold cache fill (report-warm)"},
	{"wall_s", "s", "lower", "median request latency"},
	{"jobs_per_s", "1/s", "higher", "jobs per request over wall_s"},
	{"report_p50_ms", "ms", "lower", "median request latency, in ms (wall_s)"},
	{"cpu_s", "s", "lower", "median user+sys CPU of a request (getrusage around it)"},
	{"alloc_mb", "MB", "lower", "median heap bytes a request allocates (/gc/heap/allocs:bytes)"},
	{"peak_rss_mb", "MB", "lower", "median over requests of the memory the Go runtime holds from the OS right after one"},
	{"paper_err_pct", "%", "lower", "|E4 simulated GFLOPS - 13| / 13 x 100, from hpcc run linpack/delta"},
}

// perLayer are the traced run's metrics, per traced request unless the
// name says otherwise.
var perLayer = []metricDef{
	{"harness.journaling.self_s", "s", "lower", "jobs_per_s on sweep-fleet"},
	{"journal.record_n", "count", "lower", "jobs_per_s on sweep-fleet"},
	{"journal.record_p50_us", "us", "lower", "jobs_per_s on sweep-fleet"},
	{"journal.record_p99_us", "us", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.caching.self_s", "s", "lower", "jobs_per_s on sweep-fleet"},
	{"cache.put_n", "count", "lower", "jobs_per_s on sweep-fleet"},
	{"cache.put_p50_us", "us", "lower", "jobs_per_s on sweep-fleet"},
	{"cache.put_p99_us", "us", "lower", "jobs_per_s on sweep-fleet"},
	{"cache.get_n", "count", "lower", "report_p50_ms on report-warm"},
	{"cache.get_p50_us", "us", "lower", "report_p50_ms on report-warm"},
	{"cache.hit_ratio", "ratio", "higher", "report_p50_ms on report-warm"},
	{"harness.remote.self_s", "s", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.wire.frames", "count", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.wire.bytes_out", "B", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.wire.bytes_in", "B", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.wire.dials", "count", "lower", "jobs_per_s on sweep-fleet"},
	{"harness.local.self_s", "s", "lower", "wall_s on e4-cold (about 0: the harness adds nothing there)"},
	{"workload.run_n", "count", "lower", "compute share of wall_s on every workload"},
	{"workload.run_s", "s", "lower", "compute share of wall_s on every workload"},
	{"workload.run_p50_us", "us", "lower", "compute share of wall_s on every workload"},
	{"core.render_s", "s", "lower", "report_p50_ms on report-warm"},
	{"store.append_s", "s", "lower", "wall_s on sweep-fleet"},
	{"linpack.run_s", "s", "lower", "wall_s, cpu_s on e4-cold (one extra E4 run, untimed)"},
	{"nx.msgs", "count", "lower", "wall_s, cpu_s on e4-cold (per E4 run)"},
	{"nx.bytes", "B", "lower", "wall_s, cpu_s on e4-cold (per E4 run)"},
	{"nx.flops", "flop", "lower", "wall_s, cpu_s on e4-cold (per E4 run)"},
	{"nx.recv_wait_vs", "vs", "lower", "wall_s, cpu_s on e4-cold (virtual seconds per E4 run)"},
	{"nx.host_ns_per_msg", "ns", "lower", "wall_s, cpu_s on e4-cold"},
	{"runtime.mutex_wait_s", "s", "lower", "cpu_s, wall_s on e4-cold"},
	{"runtime.sched_wait_p99_us", "us", "lower", "cpu_s, wall_s on e4-cold"},
	{"runtime.gc_cycles", "count", "lower", "alloc_mb on every workload"},
	{"trace.overhead_pct", "%", "lower", "traced minus untraced request latency, per workload"},
}
