package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sample is one parsed /metrics series: family-suffixed name, labels and
// value ("engine_solve_duration_seconds_sum", {cache: hit, ...}, 1.5).
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one /metrics exposition, parsed.
type scrape []sample

// parseMetrics parses the Prometheus text exposition balignd serves.
// Comment lines are skipped; label values may not contain '"' or ','
// unescaped, which holds for every label balignd writes.
func parseMetrics(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value in %q: %w", line, err)
		}
		s := sample{name: line[:sp], value: v, labels: map[string]string{}}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			body := strings.TrimSuffix(s.name[i+1:], "}")
			s.name = s.name[:i]
			for _, kv := range strings.Split(body, ",") {
				k, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("metrics: malformed label in %q", line)
				}
				s.labels[k] = strings.Trim(val, `"`)
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds every series of name whose labels include all of match.
func (sc scrape) sum(name string, match map[string]string) float64 {
	var total float64
next:
	for _, s := range sc {
		if s.name != name {
			continue
		}
		for k, v := range match {
			if s.labels[k] != v {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// window is the change in the registry between two scrapes taken at
// the start and the end of the timed window.
type window struct{ start, end scrape }

func (w window) delta(name string, match map[string]string) float64 {
	return w.end.sum(name, match) - w.start.sum(name, match)
}

// meanMS is the mean of a seconds histogram over the window, in ms (0
// when the window observed nothing).
func (w window) meanMS(hist string, match map[string]string) float64 {
	n := w.delta(hist+"_count", match)
	if n == 0 {
		return 0
	}
	return w.delta(hist+"_sum", match) / n * 1000
}

// layerMetrics derives the per-layer metrics taken from outside the
// process. sent is the number of align requests the benchmark sent in
// the window; the engine must have counted exactly as many, or the
// metrics come with an error.
func (w window) layerMetrics(sent int) (map[string]float64, error) {
	align := map[string]string{"endpoint": "/v1/align"}
	reqs := w.delta("engine_requests_total", nil)
	var err error
	if int(reqs) != sent {
		err = fmt.Errorf("engine_requests_total grew by %v in the window, the benchmark sent %d", reqs, sent)
	}
	hits := w.delta("engine_cache_hits_total", nil)
	return map[string]float64{
		"balignd.http_ms_mean":    w.meanMS("balignd_http_request_duration_seconds", align),
		"engine.request_ms_mean":  w.meanMS("engine_solve_duration_seconds", nil),
		"engine.hit_ms_mean":      w.meanMS("engine_solve_duration_seconds", map[string]string{"cache": "hit"}),
		"engine.miss_ms_mean":     w.meanMS("engine_solve_duration_seconds", map[string]string{"cache": "miss"}),
		"engine.cache_hit_ratio":  hits / max(reqs, 1),
		"engine.evictions":        w.delta("engine_cache_evictions_total", nil),
		"engine.coalesced":        w.delta("engine_coalesced_total", nil),
		"work.queue_wait_ms_mean": w.meanMS("work_pool_queue_wait_seconds", nil),
	}, err
}

// fetchMetrics scrapes base+"/metrics".
func fetchMetrics(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}
