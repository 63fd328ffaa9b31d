package main

// metricSpec names one metric of BENCHMARK.json.
type metricSpec struct {
	name, unit, better string
}

// perLayer lists the per-layer metrics a traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reads 0 and
// is flagged in the human-readable lines.
var perLayer = []metricSpec{
	{"sim.cpu_share", "share", "lower"},
	{"attack.cpu_share", "share", "lower"},
	{"xrand.cpu_share", "share", "lower"},
	{"wearlevel.cpu_share", "share", "lower"},
	{"spare.cpu_share", "share", "lower"},
	{"mapping.cpu_share", "share", "lower"},
	{"device.cpu_share", "share", "lower"},
	{"gc.cpu_share", "share", "lower"},
	{"net_http.cpu_share", "share", "lower"},
	{"encoding_json.cpu_share", "share", "lower"},
	{"syscall.cpu_share", "share", "lower"},
	{"sim.ns_per_write", "ns", "lower"},
	{"sim.user_writes", "count", "higher"},
	{"sim.device_writes", "count", "lower"},
	{"spare.wearouts", "count", "lower"},
	{"spare.spares_used", "count", "lower"},
	{"trace.decode_s", "s", "lower"},
	{"endurance.profile_s", "s", "lower"},
	{"runner.compute_s", "s", "lower"},
	{"runner.commit_wait_ms_p50", "ms", "lower"},
	{"runner.idle_share", "share", "lower"},
	{"atomicio.ckpt.writes_per_job", "count", "lower"},
	{"atomicio.ckpt.fsyncs_per_job", "count", "lower"},
	{"atomicio.ckpt.bytes_per_job", "bytes", "lower"},
	{"atomicio.ckpt.sync_ms_per_job", "ms", "lower"},
	{"atomicio.store.writes_per_job", "count", "lower"},
	{"atomicio.store.fsyncs_per_job", "count", "lower"},
	{"atomicio.store.bytes_per_job", "bytes", "lower"},
	{"atomicio.store.sync_ms_per_job", "ms", "lower"},
	{"atomicio.cache.writes_per_job", "count", "lower"},
	{"atomicio.cache.fsyncs_per_job", "count", "lower"},
	{"atomicio.cache.bytes_per_job", "bytes", "lower"},
	{"atomicio.cache.sync_ms_per_job", "ms", "lower"},
	{"memo.hits", "count", "higher"},
	{"memo.misses", "count", "lower"},
	{"memo.hit_ratio", "share", "higher"},
	{"memo.bytes_written", "bytes", "lower"},
	{"service.submit_ms_p50", "ms", "lower"},
	{"service.status_ms_p50", "ms", "lower"},
	{"service.events_ms_p50", "ms", "lower"},
	{"service.result_ms_p50", "ms", "lower"},
	{"service.requests_per_job", "count", "lower"},
	{"client.wait_ms_p50", "ms", "lower"},
	{"cluster.lease_ms_p50", "ms", "lower"},
	{"cluster.report_ms_p50", "ms", "lower"},
	{"cluster.requests_per_cell", "count", "lower"},
	{"cluster.worker_compute_ms_p50", "ms", "lower"},
	{"cluster.dispatch_overhead_ms_p50", "ms", "lower"},
	{"cluster.reassignments", "count", "lower"},
	{"tracing.overhead_share", "share", "lower"},
}

// endToEnd lists the end-to-end metrics an untraced run reports, in
// BENCHMARK.json order. Every workload reports every one of them.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"sim_writes_per_s", "1/s", "higher"},
	{"cells_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}
