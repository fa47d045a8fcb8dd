package serve_test

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// failingWriter is an http.ResponseWriter that accepts limit bytes and
// fails every Write from then on, like a client that went away.
type failingWriter struct {
	header         http.Header
	body           bytes.Buffer
	limit          int
	writes, failed int
}

func (w *failingWriter) Header() http.Header { return w.header }
func (w *failingWriter) WriteHeader(int)     {}
func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if room := w.limit - w.body.Len(); len(p) > room {
		w.failed++
		w.body.Write(p[:room])
		return room, errors.New("client gone")
	}
	return w.body.Write(p)
}

// TestCacheHitWriteError pins that a cache-hit stream stops at the
// first failed Write and reports itself disconnected, like the live
// path does, and that with no failure it writes the whole body.
func TestCacheHitWriteError(t *testing.T) {
	srv, hs := newTestServer(t, serve.Config{})
	doc := readExample(t, "pom.json")
	want, samples := directBody(t, doc)
	fetchRun(t, hs.URL, doc, "miss", samples)

	for _, limit := range []int{0, 1000, 3*serve.ChunkSize + 17, math.MaxInt} {
		w := &failingWriter{header: make(http.Header), limit: limit}
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(doc)))
		if got := w.header.Get("X-Pomsimd-Cache"); got != "hit" {
			t.Fatalf("limit %d: cache header %q, want hit", limit, got)
		}
		status := w.header.Get("X-Pomsimd-Status")
		if limit == math.MaxInt {
			if status != "done" || !bytes.Equal(w.body.Bytes(), want) {
				t.Errorf("unfailed stream: status %q, %d of %d bytes matching", status, w.body.Len(), len(want))
			}
			continue
		}
		if status != "disconnected" {
			t.Errorf("limit %d: status %q, want disconnected", limit, status)
		}
		if w.failed != 1 {
			t.Errorf("limit %d: %d writes after the first failure, want none (%d writes in all)", limit, w.failed-1, w.writes)
		}
		if !bytes.HasPrefix(want, w.body.Bytes()) {
			t.Errorf("limit %d: accepted bytes are not a prefix of the body", limit)
		}
	}
}
