package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"branchalign/internal/testutil"
)

// postAlignError issues a request expected to fail and decodes the
// structured error body.
func postAlignError(t *testing.T, ts *httptest.Server, req alignRequest) (errorResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRawError(t, ts, body)
}

// postRawError posts body, which need not be a well-formed request, to
// /v1/align and decodes the structured error body.
func postRawError(t *testing.T, ts *httptest.Server, body []byte) (errorResponse, int) {
	t.Helper()
	code, raw := postBody(t, ts, body)
	if code == http.StatusOK {
		t.Fatal("request unexpectedly succeeded")
	}
	var out errorResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("non-200 body is not structured JSON: %v", err)
	}
	return out, code
}

// TestAlignStaticProfile serves a completely profile-less request: no
// data, no n, no recorded profile — the engine estimates edge
// frequencies from CFG structure alone.
func TestAlignStaticProfile(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	res, code := postAlign(t, ts, alignRequest{
		Source:      testutil.BranchySource,
		ProfileMode: "static",
		Seed:        5,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.ProfileSource != "static" {
		t.Errorf("profile_source = %q, want static", res.ProfileSource)
	}
	if res.Penalty <= 0 || res.OriginalPenalty < res.Penalty {
		t.Fatalf("penalties look wrong: aligned=%d original=%d", res.Penalty, res.OriginalPenalty)
	}
	if len(res.Funcs) == 0 {
		t.Fatal("no per-function stats")
	}

	// A measured request for the same program must report its own source
	// and must not be served the static cache entry.
	mres, code := postAlign(t, ts, sourceRequest(5))
	if code != http.StatusOK {
		t.Fatalf("measured status %d", code)
	}
	if mres.ProfileSource != "measured" {
		t.Errorf("measured profile_source = %q", mres.ProfileSource)
	}
	if mres.CacheHit {
		t.Fatal("measured request hit the static cache entry")
	}

	// Re-issuing the static request hits the cache and stays static.
	again, code := postAlign(t, ts, alignRequest{
		Source:      testutil.BranchySource,
		ProfileMode: "static",
		Seed:        5,
	})
	if code != http.StatusOK {
		t.Fatalf("static re-request status %d", code)
	}
	if !again.CacheHit || again.ProfileSource != "static" {
		t.Errorf("static re-request: cache_hit=%v profile_source=%q, want true/static",
			again.CacheHit, again.ProfileSource)
	}
}

// TestAlignStaticBench runs a bundled benchmark with no dataset at all.
func TestAlignStaticBench(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	res, code := postAlign(t, ts, alignRequest{Bench: "eqntott", ProfileMode: "static", Seed: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if res.ProfileSource != "static" || res.Penalty <= 0 {
		t.Fatalf("profile_source=%q penalty=%d", res.ProfileSource, res.Penalty)
	}
}

// TestAlignErrorKinds pins the machine-readable error discriminators
// clients switch on.
func TestAlignErrorKinds(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	mainNoArgs := "func main() { return 1; }"
	cases := []struct {
		name string
		req  alignRequest
		// raw, when set, is sent as the body instead of req.
		raw      string
		wantCode int
		wantKind string
	}{
		{
			name:     "unknown profile_mode",
			req:      alignRequest{Source: testutil.BranchySource, ProfileMode: "oracle"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "static with inline data",
			req:      alignRequest{Source: testutil.BranchySource, ProfileMode: "static", Data: testData(8, 1)},
			wantCode: http.StatusBadRequest,
			wantKind: "profile_conflict",
		},
		{
			name: "static with recorded profile",
			req: alignRequest{
				Source:      testutil.BranchySource,
				ProfileMode: "static",
				Profile:     json.RawMessage(`{"funcs":[]}`),
			},
			wantCode: http.StatusBadRequest,
			wantKind: "profile_conflict",
		},
		{
			name:     "bench with inline data",
			req:      alignRequest{Bench: "compress", Data: testData(8, 1), N: new(int64)},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "dataset without bench",
			req:      alignRequest{Source: testutil.BranchySource, DataSet: "txt"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name: "recorded profile with inline data",
			req: alignRequest{
				Source:  testutil.BranchySource,
				Data:    testData(8, 1),
				Profile: json.RawMessage(`{"funcs":[]}`),
			},
			wantCode: http.StatusBadRequest,
			wantKind: "profile_conflict",
		},
		{
			name:     "no program",
			req:      alignRequest{ProfileMode: "static"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "unknown bench",
			req:      alignRequest{Bench: "nonesuch", ProfileMode: "static"},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "misspelt field",
			raw:      `{"bench":"compress","profle_mode":"static"}`,
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "trailing object",
			raw:      `{"bench":"compress"}{"bench":"xli"}`,
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "trailing garbage",
			raw:      `{"bench":"compress"} x`,
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "main() with data",
			req:      alignRequest{Source: mainNoArgs, Data: testData(8, 1)},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
		{
			name:     "main() with n",
			req:      alignRequest{Source: mainNoArgs, N: new(int64)},
			wantCode: http.StatusBadRequest,
			wantKind: "bad_request",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var (
				body errorResponse
				code int
			)
			if tc.raw != "" {
				body, code = postRawError(t, ts, []byte(tc.raw))
			} else {
				body, code = postAlignError(t, ts, tc.req)
			}
			if code != tc.wantCode {
				t.Errorf("status = %d, want %d", code, tc.wantCode)
			}
			if body.Kind != tc.wantKind {
				t.Errorf("kind = %q (error %q), want %q", body.Kind, body.Error, tc.wantKind)
			}
			if body.Error == "" {
				t.Error("empty error message")
			}
		})
	}
}

// TestNotFoundIsJSON: unknown routes return the structured body too,
// not net/http's plain-text page.
func TestNotFoundIsJSON(t *testing.T) {
	ts := httptest.NewServer(newServer(serverConfig{}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("404 body is not JSON: %v", err)
	}
	if body.Kind != "not_found" {
		t.Errorf("kind = %q, want not_found", body.Kind)
	}
}
