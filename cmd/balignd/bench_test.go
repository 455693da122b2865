package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// serveAlign sends one POST /v1/align with body through s's handler (no
// sockets) and fails b unless it answers 200.
func serveAlign(b *testing.B, s *server, body []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/align", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeAlign times one compress request end to end through the
// handler, from JSON decode to response encode, under each profile mode.
// A cold request goes to a fresh server: it compiles, profiles (runs the
// interpreter or the static estimator) and solves. A cached request
// repeats one already served: a measured one hits the profile cache and
// the result cache, a static one compiles again and hits the result
// cache.
func BenchmarkServeAlign(b *testing.B) {
	for _, mode := range []string{"measured", "static"} {
		body, err := json.Marshal(alignRequest{Bench: "compress", ProfileMode: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode+"/cold", func(b *testing.B) {
			// A b.N loop, not b.Loop: the timer stops around each fresh
			// server.
			for range b.N {
				b.StopTimer()
				s := newServer(serverConfig{})
				b.StartTimer()
				serveAlign(b, s, body)
			}
		})
		b.Run(mode+"/cached", func(b *testing.B) {
			s := newServer(serverConfig{})
			serveAlign(b, s, body)
			b.ResetTimer()
			for range b.N {
				serveAlign(b, s, body)
			}
		})
	}
}
