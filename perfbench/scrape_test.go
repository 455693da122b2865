package main

import (
	"strings"
	"testing"
)

const scrapeBefore = `# HELP engine_requests_total Alignment requests accepted by the engine.
# TYPE engine_requests_total counter
engine_requests_total 4
engine_cache_hits_total 4
engine_cache_evictions_total 0
engine_coalesced_total 0
balignd_http_request_duration_seconds_bucket{endpoint="/v1/align",le="+Inf"} 4
balignd_http_request_duration_seconds_sum{endpoint="/v1/align"} 0.4
balignd_http_request_duration_seconds_count{endpoint="/v1/align"} 4
balignd_http_request_duration_seconds_sum{endpoint="/metrics"} 0.001
balignd_http_request_duration_seconds_count{endpoint="/metrics"} 1
engine_solve_duration_seconds_sum{algorithm="tsp",cache="hit",profile_mode="measured"} 0.004
engine_solve_duration_seconds_count{algorithm="tsp",cache="hit",profile_mode="measured"} 4
work_pool_queue_wait_seconds_sum 0
work_pool_queue_wait_seconds_count 0
`

const scrapeAfter = `engine_requests_total 14
engine_cache_hits_total 9
engine_cache_evictions_total 2
engine_coalesced_total 1
balignd_http_request_duration_seconds_sum{endpoint="/v1/align"} 2.4
balignd_http_request_duration_seconds_count{endpoint="/v1/align"} 14
balignd_http_request_duration_seconds_sum{endpoint="/metrics"} 0.002
balignd_http_request_duration_seconds_count{endpoint="/metrics"} 2
engine_solve_duration_seconds_sum{algorithm="tsp",cache="hit",profile_mode="measured"} 0.009
engine_solve_duration_seconds_count{algorithm="tsp",cache="hit",profile_mode="measured"} 9
engine_solve_duration_seconds_sum{algorithm="tsp",cache="miss",profile_mode="measured"} 1.5
engine_solve_duration_seconds_count{algorithm="tsp",cache="miss",profile_mode="measured"} 5
work_pool_queue_wait_seconds_sum 0.02
work_pool_queue_wait_seconds_count 4
`

func TestWindowLayerMetrics(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseMetrics(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	got, err := window{before, after}.layerMetrics(10)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"balignd.http_ms_mean":    200, // 2 s over 10 align requests; /metrics excluded
		"engine.request_ms_mean":  (0.005 + 1.5) / 10 * 1000,
		"engine.hit_ms_mean":      1,
		"engine.miss_ms_mean":     300,
		"engine.cache_hit_ratio":  0.5,
		"engine.evictions":        2,
		"engine.coalesced":        1,
		"work.queue_wait_ms_mean": 5,
	}
	for k, w := range want {
		if g := got[k]; g < w-1e-9 || g > w+1e-9 {
			t.Errorf("%s = %v, want %v", k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d", len(got), len(want))
	}
	// A request the benchmark did not count shows as a mismatch.
	if _, err := (window{before, after}).layerMetrics(9); err == nil {
		t.Error("engine_requests_total grew by 10 for 9 sent requests, but no error")
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, text := range []string{"engine_requests_total", "engine_requests_total x", `m{a} 1`} {
		if _, err := parseMetrics(strings.NewReader(text)); err == nil {
			t.Errorf("%q parsed", text)
		}
	}
}
