package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what the window keeps of one distinct request: its first
// response, and how many requests with that key got that response.
type outcome struct {
	job  *job
	resp *wireResponse
	ok   int
}

// windowResult is the client-side record of one timed window.
type windowResult struct {
	latencies []time.Duration // every completed request
	attempted int
	failed    int
	failures  []string // a few failure reasons, for the log
	elapsed   time.Duration
	outcomes  map[int]*outcome
	opening   []*wireResponse // responses to requests 0..opening-1
	exhausted bool            // a finite workload ran out of requests
}

func (w *windowResult) fail(reason string) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, reason)
	}
}

// newClient returns a client holding at most one connection, as one
// closed-loop user does.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// post sends one align request and reads the whole body.
func post(ctx context.Context, c *http.Client, base string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/align", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// decodeOK decodes a 200 response, rejecting truncated solves: the
// benchmark sets no deadline, so a truncated result is a failure.
func decodeOK(status int, body []byte) (*wireResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var r wireResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable body: %w", err)
	}
	if r.Truncated {
		return nil, fmt.Errorf("truncated response")
	}
	return &r, nil
}

// sameResult reports whether two responses to one request carry the
// same layout: identical orders and penalties (bounds may tighten
// between repeats as warm states improve).
func sameResult(a, b *wireResponse) bool {
	if a.Penalty != b.Penalty || a.OriginalPenalty != b.OriginalPenalty || len(a.Funcs) != len(b.Funcs) {
		return false
	}
	for i := range a.Funcs {
		if a.Funcs[i].Cost != b.Funcs[i].Cost || !slices.Equal(a.Funcs[i].Order, b.Funcs[i].Order) {
			return false
		}
	}
	return true
}

// runWindow drives the closed loop: each client sends its next request
// only after the previous one completed, and takes the next request
// number from a shared counter until the window closes. Requests started
// before the deadline run to completion, and the window stays open
// until the opening sequence has been sent.
func runWindow(ctx context.Context, base string, p *plan, dur time.Duration) *windowResult {
	res := &windowResult{outcomes: map[int]*outcome{}, opening: make([]*wireResponse, p.opening)}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= p.opening && !time.Now().Before(deadline) {
					return
				}
				j := p.job(i)
				if j == nil {
					mu.Lock()
					res.exhausted = true
					mu.Unlock()
					return
				}
				t0 := time.Now()
				status, body, err := post(ctx, hc, base, j.body)
				lat := time.Since(t0)
				var r *wireResponse
				if err == nil {
					r, err = decodeOK(status, body)
				}
				mu.Lock()
				res.attempted++
				res.latencies = append(res.latencies, lat)
				o := res.outcomes[j.key]
				if o == nil {
					o = &outcome{job: j}
					res.outcomes[j.key] = o
				}
				switch {
				case err != nil:
					res.fail(fmt.Sprintf("request %d (%s): %v", i, j.inst.name, err))
				case o.resp == nil:
					o.resp = r
					o.ok++
				case !sameResult(o.resp, r):
					res.fail(fmt.Sprintf("request %d (%s): repeat returned a different layout", i, j.inst.name))
				default:
					o.ok++
				}
				if err == nil && i < p.opening {
					res.opening[i] = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// prime sends the plan's priming requests in order on one connection.
func prime(ctx context.Context, base string, p *plan) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	for _, j := range p.prime {
		status, body, err := post(ctx, hc, base, j.body)
		if err == nil {
			_, err = decodeOK(status, body)
		}
		if err != nil {
			return fmt.Errorf("priming %s: %w", j.inst.name, err)
		}
	}
	return nil
}
