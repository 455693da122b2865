package main

// metric is one metric the benchmark reports.
type metric struct {
	name, unit string
	// moves, for a per-layer metric, names the end-to-end metric and
	// the workloads a change in this layer should move.
	moves string
}

// endToEndMetrics are the result of a -trace 0 run.
var endToEndMetrics = []metric{
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "throughput_rps", unit: "1/s"},
	{name: "penalty_norm", unit: "ratio"},
	{name: "hk_gap_pct", unit: "%"},
	{name: "setup_s", unit: "s"},
	{name: "server_rss_mb", unit: "MB"},
	{name: "server_cpu_ms_per_req", unit: "ms"},
}

// printedOnly are printed with the end-to-end metrics but left out of
// the result: error_rate, because a result metric must never be 0 and
// "failed" already carries it, and server_rss_peak_mb (VmHWM), because
// one allocation burst moves it by half (20 or 35 MB on identical runs
// of cached-measured); server_rss_mb, the median of VmRSS sampled every
// 100 ms over the window, stands in for it.
var printedOnly = []metric{
	{name: "error_rate", unit: "ratio"},
	{name: "server_rss_peak_mb", unit: "MB"},
}

// layerMetrics are the result of a -trace 1 run: /metrics deltas over
// the untraced window, then the traced in-process run's per-request
// medians. A layer a workload never enters reads 0 there. Self times of
// one layer's concurrent spans add up (per-function solves run on two
// workers), so tsp.solve_ms can exceed engine.align_ms.
var layerMetrics = []metric{
	{"balignd.http_ms_mean", "ms", "latency_p50_ms on all workloads"},
	{"engine.request_ms_mean", "ms", "latency_p50_ms on cold-static and bound-reseed"},
	{"engine.hit_ms_mean", "ms", "latency_p50_ms on cached-measured"},
	{"engine.miss_ms_mean", "ms", "latency_p50_ms on cold-static and bound-reseed"},
	{"engine.cache_hit_ratio", "ratio", "latency_p50_ms on cached-measured (1.0 there, 0 on the others)"},
	{"engine.evictions", "count", "server_rss_mb on cold-static"},
	{"engine.coalesced", "count", "latency_p90_ms when identical requests overlap (0 on these workloads)"},
	{"work.queue_wait_ms_mean", "ms", "latency_p90_ms on cold-static"},
	{"balignd.decode_ms", "ms", "latency_p50_ms on cached-measured"},
	{"balignd.encode_ms", "ms", "latency_p50_ms on cached-measured"},
	{"balignd.self_ms", "ms", "latency_p50_ms on cached-measured (data-set inputs, response building)"},
	{"minic.parse_ms", "ms", "latency_p50_ms on cached-measured and cold-static"},
	{"minic.check_ms", "ms", "latency_p50_ms on cached-measured and cold-static"},
	{"lower.program_ms", "ms", "latency_p50_ms on cached-measured and cold-static"},
	{"ir.blocks", "count", "every compile and solve layer on cached-measured and cold-static"},
	{"interp.run_ms", "ms", "latency_p50_ms and throughput_rps on cached-measured"},
	{"interp.steps", "count", "latency_p50_ms and throughput_rps on cached-measured"},
	{"interp.profile_decode_ms", "ms", "latency_p50_ms on bound-reseed"},
	{"staticprof.estimate_ms", "ms", "latency_p50_ms on cold-static"},
	{"engine.align_ms", "ms", "latency_p50_ms on all workloads"},
	{"engine.self_ms", "ms", "latency_p50_ms on cached-measured (key hashing, LRU, pool, finalize, penalty)"},
	{"align.build_matrix_ms", "ms", "latency_p50_ms and throughput_rps on cold-static and bound-reseed"},
	{"tsp.solve_ms", "ms", "latency_p50_ms and throughput_rps on cold-static and bound-reseed"},
	{"tsp.runs", "count", "latency_p50_ms on cold-static and bound-reseed"},
	{"tsp.kicks", "count", "latency_p50_ms on cold-static and bound-reseed; guards penalty_norm"},
	{"align.hk_ms", "ms", "latency_p50_ms and hk_gap_pct on bound-reseed"},
	{"tsp.hk_iterations", "count", "latency_p50_ms and hk_gap_pct on bound-reseed"},
	{"trace.overhead_ratio", "ratio", "none: traced over untraced median request time, in process"},
}
