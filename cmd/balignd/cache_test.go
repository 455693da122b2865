package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"branchalign/internal/bench"
	"branchalign/internal/interp"
	"branchalign/internal/testutil"
)

// postRaw posts req to /v1/align and returns the status and raw body.
func postRaw(t *testing.T, ts *httptest.Server, req alignRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, ts, body)
}

// postBody posts body to /v1/align and returns the status and raw body.
func postBody(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// comparable drops the response fields that legitimately differ
// between a cache hit and a fresh solve — the wall-clock time and the
// cache flags — and re-encodes the rest with sorted keys.
func comparable(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, body)
	}
	delete(m, "elapsed_ms")
	delete(m, "cache_hit")
	delete(m, "coalesced")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// recordedProfile is the JSON profile of BranchySource on testData(400,
// 7), as `balign -profile-out` would record it.
func recordedProfile(t *testing.T) json.RawMessage {
	t.Helper()
	_, prof, _, err := testutil.CompileAndProfile(testutil.BranchySource,
		[]interp.Input{interp.ArrayInput(testData(400, 7)), interp.ScalarInput(400)})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := prof.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// scalarSource is a Mini-C program whose entry takes only n.
const scalarSource = `
func main(n) {
	var i;
	var s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i % 3 == 0) { s = s + i; } else { s = s - 1; }
	}
	return s;
}
`

// TestProfileCacheHitEquivalence: a request served from the profile
// cache answers exactly as a fresh server does, both when only the
// profile cache hits (a new seed re-solves) and when the result cache
// hits too. The programs are the cached-measured benchmark's eight
// bench/data-set pairs plus a source program with data and one with n.
func TestProfileCacheHitEquivalence(t *testing.T) {
	var reqs []alignRequest
	for _, name := range []string{"compress", "espresso", "su2cor", "xli"} {
		b, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range b.DataSets {
			reqs = append(reqs, alignRequest{Bench: name, DataSet: ds.Name})
		}
	}
	n := int64(300)
	reqs = append(reqs,
		alignRequest{Source: testutil.BranchySource, Data: testData(400, 7)},
		alignRequest{Source: scalarSource, N: &n})

	warm := httptest.NewServer(newServer(serverConfig{}))
	defer warm.Close()
	for _, req := range reqs {
		name := req.Bench + "/" + req.DataSet
		if req.Source != "" {
			name = fmt.Sprintf("source/data=%d/n=%v", len(req.Data), req.N != nil)
		}
		t.Run(name, func(t *testing.T) {
			req.Seed = 1
			if code, body := postRaw(t, warm, req); code != http.StatusOK {
				t.Fatalf("priming status %d: %s", code, body)
			}
			req.Seed = 2
			_, profileHit := postRaw(t, warm, req)
			_, bothHit := postRaw(t, warm, req)

			fresh := httptest.NewServer(newServer(serverConfig{}))
			defer fresh.Close()
			code, want := postRaw(t, fresh, req)
			if code != http.StatusOK {
				t.Fatalf("fresh status %d: %s", code, want)
			}
			if got := comparable(t, profileHit); got != comparable(t, want) {
				t.Errorf("profile-cache hit differs from a fresh server:\n got %s\nwant %s", got, comparable(t, want))
			}
			if got := comparable(t, bothHit); got != comparable(t, want) {
				t.Errorf("result-cache hit differs from a fresh server:\n got %s\nwant %s", got, comparable(t, want))
			}
		})
	}
	st := getStats(t, warm)
	if st.Engine.ProfileCacheMisses != int64(len(reqs)) || st.Engine.ProfileCacheHits != 2*int64(len(reqs)) {
		t.Errorf("profile cache hits/misses %d/%d, want %d/%d",
			st.Engine.ProfileCacheHits, st.Engine.ProfileCacheMisses, 2*len(reqs), len(reqs))
	}
}

// TestProfileCacheBypass: static and recorded-profile requests never
// consult the profile cache.
func TestProfileCacheBypass(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	recorded := recordedProfile(t)
	for range 2 {
		for _, req := range []alignRequest{
			{Bench: "compress", ProfileMode: "static"},
			{Source: testutil.BranchySource, ProfileMode: "static"},
			{Source: testutil.BranchySource, Profile: recorded},
		} {
			if code, body := postRaw(t, ts, req); code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
		}
	}
	if st := getStats(t, ts); st.Engine.ProfileCacheHits != 0 || st.Engine.ProfileCacheMisses != 0 {
		t.Errorf("profile cache hits/misses %d/%d, want 0/0", st.Engine.ProfileCacheHits, st.Engine.ProfileCacheMisses)
	}
	if n := sumSamples(scrapeMetrics(t, ts), "engine_profile_cache_entries"); n != 0 {
		t.Errorf("engine_profile_cache_entries = %v, want 0", n)
	}
}

// TestProfileCacheSkipsErrors: a program whose profiling run fails is
// not cached, so a repeat runs it again and fails the same way.
func TestProfileCacheSkipsErrors(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()
	req := alignRequest{
		Source: "func main(input[], n) { return 1 / (n - 3); }",
		Data:   testData(3, 1),
	}
	for i := range 2 {
		body, code := postAlignError(t, ts, req)
		if code != http.StatusBadRequest || body.Kind != "bad_request" || !strings.Contains(body.Error, "division by zero") {
			t.Fatalf("request %d: status %d kind %q (%s), want 400 bad_request from the run", i, code, body.Kind, body.Error)
		}
	}
	if st := getStats(t, ts); st.Engine.ProfileCacheHits != 0 || st.Engine.ProfileCacheMisses != 2 {
		t.Errorf("profile cache hits/misses %d/%d, want 0/2", st.Engine.ProfileCacheHits, st.Engine.ProfileCacheMisses)
	}
	if n := sumSamples(scrapeMetrics(t, ts), "engine_profile_cache_entries"); n != 0 {
		t.Errorf("engine_profile_cache_entries = %v, want 0", n)
	}
}
