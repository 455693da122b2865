// Command perfbench is the repository's end-to-end benchmark. It starts
// the balignd binary with default flags, drives POST /v1/align over
// loopback HTTP from closed-loop clients for a fixed window, checks
// every response, and prints the end-to-end metrics; with -trace 1 it
// also serves the workload's opening requests in process with a span
// around every layer call and prints the per-layer metrics.
//
//	bash perfbench/run.sh --workload cold-static --seed 1 --seconds 20 --trace 0
//
// run.sh builds balignd and this program from the checkout first. A run
// ends with one JSON line: {"correct", "attempted", "failed", "metrics":
// {name: {value, unit}}}. --workload all runs every workload in turn,
// each ending with its own line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"branchalign/internal/align"
	"branchalign/internal/tsp"
)

// setupRepeats is how many times a run sets the server up; setup_s is
// the median, and the last set-up serves the timed window.
const setupRepeats = 9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: cached-measured, cold-static, bound-reseed, or all of them in turn")
		seed    = fs.Int64("seed", 1, "workload seed (>= 0)")
		seconds = fs.Int("seconds", 10, "length of the timed window")
		traced  = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced in-process run")
		bin     = fs.String("balignd", ".bench_build/balignd", "balignd binary")
		out     = fs.String("out", ".bench_build", "directory the traced run's spans are written to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seed < 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -seed >= 0, -seconds >= 1 and -trace 0 or 1")
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if err := runWorkload(ctx, w, *seed, *seconds, *traced == 1, *bin, *out, stdout); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// runWorkload makes one run of one workload and prints its result.
func runWorkload(ctx context.Context, w workload, seed int64, seconds int, traced bool, bin, out string, stdout io.Writer) error {
	var phases []string
	phase := func(name string, since time.Time) {
		phases = append(phases, fmt.Sprintf("%s %.2fs", name, time.Since(since).Seconds()))
	}
	t := time.Now()
	p, err := w.prepare(seed, seconds)
	if err != nil {
		return fmt.Errorf("preparing %s: %w", w.name, err)
	}
	phase("inputs", t)
	t = time.Now()
	d, setupS, err := setUp(ctx, bin, p)
	if err != nil {
		return err
	}
	phase("set-up", t)
	defer d.stop()

	mc := newClient()
	defer mc.CloseIdleConnections()
	before, err := fetchMetrics(mc, d.base)
	if err != nil {
		return err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64, 1)
	go func() { rssDone <- d.sampleRSS(100*time.Millisecond, stopRSS) }()
	wr := runWindow(ctx, d.base, p, time.Duration(seconds)*time.Second)
	close(stopRSS)
	rss := <-rssDone
	cpu1, err := d.cpuTime()
	if err != nil {
		return err
	}
	hwmMB, err := d.memMB("VmHWM")
	if err != nil {
		return err
	}
	after, err := fetchMetrics(mc, d.base)
	if err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("balignd did not exit cleanly: %v: %s", err, d.logs)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	correct := true
	var notes []string
	t = time.Now()
	// Verify each distinct response once, now that balignd is stopped.
	for _, o := range wr.outcomes {
		if o.resp == nil {
			continue
		}
		if err := verify(o.job.inst, o.resp, o.job.bound); err != nil {
			wr.failed += o.ok
			notes = append(notes, fmt.Sprintf("output check failed for %s: %v", o.job.inst.name, err))
		}
	}
	layers, err := window{before, after}.layerMetrics(wr.attempted)
	if err != nil {
		correct = false
		notes = append(notes, err.Error())
	}
	penaltyNorm, gapPct, err := openingQuality(p, wr)
	if err != nil {
		correct = false
		notes = append(notes, err.Error())
	}
	phase("checks", t)
	completed := wr.attempted - wr.failed
	lat := make([]float64, len(wr.latencies))
	for i, l := range wr.latencies {
		lat[i] = float64(l) / 1e6
	}
	e2e := map[string]float64{
		"latency_p50_ms":        quantile(lat, 0.5),
		"latency_p90_ms":        quantile(lat, 0.9),
		"throughput_rps":        float64(completed) / wr.elapsed.Seconds(),
		"penalty_norm":          penaltyNorm,
		"hk_gap_pct":            gapPct,
		"setup_s":               setupS,
		"server_rss_mb":         median(rss),
		"server_rss_peak_mb":    hwmMB,
		"server_cpu_ms_per_req": float64(cpu1-cpu0) / 1e6 / float64(max(completed, 1)),
		"error_rate":            float64(wr.failed) / float64(max(wr.attempted, 1)),
	}
	if wr.failed > 0 {
		correct = false
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %d clients, %d requests in %.3fs (%d distinct), %d failed\n",
		w.name, seed, p.clients, wr.attempted, wr.elapsed.Seconds(), len(wr.outcomes), wr.failed)
	if wr.exhausted {
		fmt.Fprintln(stdout, "note: the workload ran out of pre-generated requests before the window closed")
	}
	for _, n := range append(slices.Clone(wr.failures), notes...) {
		fmt.Fprintln(stdout, "FAIL:", n)
	}
	fmt.Fprintf(stdout, "latency samples: %d\n", len(lat))
	printMetrics(stdout, "end to end", e2e, append(slices.Clone(endToEndMetrics), printedOnly...))

	res := result{Correct: correct, Attempted: wr.attempted, Failed: wr.failed, Metrics: map[string]metricValue{}}
	report := endToEndMetrics
	vals := e2e
	if traced {
		t = time.Now()
		rec, overhead, err := tracedRun(p)
		if err != nil {
			return fmt.Errorf("traced run: %w", err)
		}
		phase("traced run", t)
		if err := writeSpans(rec, filepath.Join(out, "spans-"+w.name+".ndjson")); err != nil {
			return err
		}
		for k, v := range rec.layerMetrics() {
			layers[k] = v
		}
		layers["trace.overhead_ratio"] = overhead
		printMetrics(stdout, "per layer", layers, layerMetrics)
		report, vals = layerMetrics, layers
	}
	for _, m := range report {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	fmt.Fprintf(stdout, "phases: %s\n", strings.Join(phases, ", "))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setUp starts balignd and primes it setupRepeats times, stopping all
// but the last server, and returns that server and the median set-up
// time: from starting the process, through readiness and priming, to
// the moment the window can start.
func setUp(ctx context.Context, bin string, p *plan) (*daemon, float64, error) {
	var (
		times []float64
		d     *daemon
	)
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, 0, fmt.Errorf("balignd did not exit cleanly: %v: %s", err, d.logs)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(ctx, bin); err != nil {
			return nil, 0, err
		}
		if err := prime(ctx, d.base, p); err != nil {
			d.stop()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return d, median(times), nil
}

// openingQuality computes penalty_norm, the geometric mean of
// penalty/original_penalty over the opening requests, and hk_gap_pct,
// (sum of penalties - sum of Held-Karp bounds) / sum of penalties over
// the same requests. Requests that asked for a bound carry their own;
// for the others the benchmark computes the bound after the window
// (1000 iterates, the server's default), so the metric exists on every
// workload.
func openingQuality(p *plan, wr *windowResult) (float64, float64, error) {
	var logSum float64
	var pen, bound int64
	hk := map[*instance]int64{} // an instance may recur in the sequence
	for i, r := range wr.opening {
		if r == nil {
			return 0, 0, errors.New("the opening sequence did not complete")
		}
		logSum += math.Log(float64(r.Penalty) / float64(r.OriginalPenalty))
		pen += r.Penalty
		j := p.job(i)
		if j.bound {
			bound += r.Bound
		} else {
			in := j.inst
			if _, ok := hk[in]; !ok {
				hk[in] = int64(align.HeldKarpLowerBound(in.mod, in.profile(), defaultModel, tsp.HeldKarpOptions{Iterations: 1000}))
			}
			bound += hk[in]
		}
	}
	if pen == 0 {
		return 0, 0, errors.New("the opening sequence has zero penalty")
	}
	return math.Exp(logSum / float64(len(wr.opening))), float64(pen-bound) / float64(pen) * 100, nil
}

// quantile is the q-quantile of vals, interpolating between order
// statistics.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func printMetrics(w io.Writer, title string, vals map[string]float64, metrics []metric) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-26s %14.4f %-6s %s\n", m.name, vals[m.name], m.unit, m.moves)
	}
}

func writeSpans(rec *recorder, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeNDJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
