package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// exampleDir is the shipped scenario corpus — one spec per family.
const exampleDir = "../../examples/scenarios"

// families maps each registered family to its example file.
var families = map[string]string{
	"pom":       "pom.json",
	"kuramoto":  "kuramoto.json",
	"continuum": "continuum.json",
	"torus2d":   "torus2d.json",
	"linstab":   "linstab.json",
	"cluster":   "cluster.json",
}

func readExample(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(exampleDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// newTestServer builds a serve.Server on a temp cache dir plus an
// httptest front end, and registers cleanup for both.
func newTestServer(t testing.TB, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = serve.NewFakeClock(time.Unix(1_700_000_000, 0))
	}
	if cfg.CacheDir == "" {
		cfg.CacheDir = t.TempDir()
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return srv, hs
}

// renderSink renders solver rows to NDJSON with strconv's shortest
// 'g' form — the direct-run reference body for the bitwise pins. It is
// written independently of serve.AppendRow, so a wrong service encoder
// cannot agree with its own reference.
type renderSink struct{ body []byte }

func (r *renderSink) Begin(n, nSamples int) {}
func (r *renderSink) Sample(t float64, y []float64) {
	r.body = append(r.body, `{"t":`...)
	r.body = strconv.AppendFloat(r.body, t, 'g', -1, 64)
	r.body = append(r.body, `,"y":[`...)
	for i, v := range y {
		if i > 0 {
			r.body = append(r.body, ',')
		}
		r.body = strconv.AppendFloat(r.body, v, 'g', -1, 64)
	}
	r.body = append(r.body, "]}\n"...)
}

// directBody runs the spec through sim.RunStream in-process and renders
// the reference NDJSON body.
func directBody(t *testing.T, doc []byte) ([]byte, int) {
	t.Helper()
	spec, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sys, tEnd, samples, err := spec.BuildSystem()
	if err != nil {
		t.Fatal(err)
	}
	sink := &renderSink{}
	if _, err := sim.RunStream(sys, tEnd, samples, sink); err != nil {
		t.Fatal(err)
	}
	return sink.body, samples
}

func postRun(t *testing.T, base string, doc []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// fetchRun posts doc to /v1/run and returns the body and job ID,
// failing t unless the response is a complete 200 of cache kind kind.
func fetchRun(t *testing.T, base string, doc []byte, kind string, samples int) ([]byte, string) {
	t.Helper()
	resp := postRun(t, base, doc)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Pomsimd-Cache"); got != kind {
		t.Errorf("cache header %q, want %q", got, kind)
	}
	if got := resp.Trailer.Get("X-Pomsimd-Status"); got != "done" {
		t.Errorf("%s trailer status %q, want done", kind, got)
	}
	if got := resp.Trailer.Get("X-Pomsimd-Rows"); got != strconv.Itoa(samples) {
		t.Errorf("%s trailer rows %q, want %d", kind, got, samples)
	}
	return body, resp.Header.Get("X-Pomsimd-Job")
}

// TestE2EPerFamily pins, for every family's shipped example: the
// streamed HTTP body is byte-identical to a direct in-process
// sim.RunStream of the same spec; a second submit is answered from the
// cache without a second execution, and its streamed body equals the
// fresh one, RenderRecord of the cached record, and ResultBody of both
// jobs. The examples span a body of many stream chunks (pom) and one
// smaller than a single chunk.
func TestE2EPerFamily(t *testing.T) {
	srv, hs := newTestServer(t, serve.Config{Workers: 2})
	smallest, largest := math.MaxInt, 0
	for family, file := range families {
		t.Run(family, func(t *testing.T) {
			doc := readExample(t, file)
			want, samples := directBody(t, doc)

			spec, err := scenario.Load(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			hash, err := scenario.CanonicalHash(spec)
			if err != nil {
				t.Fatal(err)
			}

			body, freshID := fetchRun(t, hs.URL, doc, "miss", samples)
			if !bytes.Equal(body, want) {
				t.Fatalf("streamed body diverges from direct run: %d vs %d bytes\nfirst streamed line: %.120s\nfirst direct line:   %.120s",
					len(body), len(want), firstLine(body), firstLine(want))
			}

			// Repeat: must be a cache hit, byte-identical, no re-execution.
			hit, hitID := fetchRun(t, hs.URL, doc, "hit", samples)
			if !bytes.Equal(hit, want) {
				t.Fatalf("cache-hit body diverges: %d vs %d bytes", len(hit), len(want))
			}
			if n := srv.Executions(hash); n != 1 {
				t.Errorf("executions for %s = %d, want 1", family, n)
			}
			rec, ok, err := srv.CachedRecord(hash)
			if err != nil || !ok {
				t.Fatalf("cached record: ok=%v err=%v", ok, err)
			}
			if got := serve.RenderRecord(rec); !bytes.Equal(got, want) {
				t.Errorf("RenderRecord diverges: %d vs %d bytes", len(got), len(want))
			}
			for _, id := range []string{freshID, hitID} {
				j, ok := srv.Job(id)
				if !ok {
					t.Fatalf("unknown job %q", id)
				}
				got, err := srv.ResultBody(j)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("ResultBody(%s) diverges: %d vs %d bytes", id, len(got), len(want))
				}
			}
			smallest, largest = min(smallest, len(hit)), max(largest, len(hit))

			// Every line must be a standalone JSON row.
			checkNDJSON(t, body, samples)
		})
	}
	if largest < 8*serve.ChunkSize || smallest >= serve.ChunkSize {
		t.Errorf("bodies span %d–%d bytes; the examples must include one over 8 stream chunks and one under a chunk (%d bytes)",
			smallest, largest, serve.ChunkSize)
	}
}

func firstLine(b []byte) []byte {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		return b[:i]
	}
	return b
}

// checkNDJSON validates the framing: samples lines, each decoding to
// {"t": float, "y": [floats]}.
func checkNDJSON(t *testing.T, body []byte, samples int) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != samples {
		t.Fatalf("body has %d lines, want %d", len(lines), samples)
	}
	var row struct {
		T float64   `json:"t"`
		Y []float64 `json:"y"`
	}
	for i, line := range lines {
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("line %d is not a JSON row: %v\n%.120s", i, err, line)
		}
		if len(row.Y) == 0 {
			t.Fatalf("line %d has empty y", i)
		}
	}
}

// TestE2EJobAPI drives the asynchronous surface: submit, poll status,
// fetch the result, and pin it against the direct run.
func TestE2EJobAPI(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{Workers: 2})
	doc := readExample(t, "kuramoto.json")
	want, _ := directBody(t, doc)

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Family string `json:"family"`
		Hash   string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.ID == "" || st.Family != "kuramoto" || len(st.Hash) != 64 {
		t.Fatalf("job handle %+v", st)
	}

	// Poll until terminal (the run takes milliseconds; the deadline is
	// generous for -race CI).
	deadline := time.Now().Add(30 * time.Second)
	for st.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", st.State)
		}
		r, err := http.Get(hs.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if err := r.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if st.State == "failed" || st.State == "canceled" {
			t.Fatalf("job ended %q", st.State)
		}
		time.Sleep(time.Millisecond)
	}

	r, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", r.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("job result diverges from direct run: %d vs %d bytes", len(body), len(want))
	}

	// Unknown jobs 404.
	r404, err := http.Get(hs.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, r404.Body)
	if err := r404.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", r404.StatusCode)
	}
}

// TestE2EValidationErrors pins the bugfix surface: an invalid config in
// any family returns 400 (never 500) and names the offending field
// path in the JSON error body.
func TestE2EValidationErrors(t *testing.T) {
	_, hs := newTestServer(t, serve.Config{})
	for _, tc := range []struct {
		name, doc, field string
	}{
		{"pom", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"desync","sigma":-1},"offsets":[-1,1]}`, "potential.sigma"},
		{"kuramoto", `{"family":"kuramoto","kuramoto":{"n":1,"k":1}}`, "kuramoto.n"},
		{"continuum", `{"family":"continuum","continuum":{"m":32,"a":0.5,"k":-1,"potential":{"kind":"tanh"}}}`, "continuum.k"},
		{"torus2d", `{"family":"torus2d","torus2d":{"nx":1,"ny":4,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"radius":1}}`, "torus2d.nx"},
		{"linstab", `{"family":"linstab","linstab":{"n":8,"offsets":[-1,1],"potential":{"kind":"tanh"},"from":2,"to":1}}`, "linstab.from"},
		{"cluster", `{"family":"cluster","cluster":{"n":4,"iters":0}}`, "cluster.iters"},
		{"samples", `{"n":8,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"samples":1}`, "samples"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRun(t, hs.URL, []byte(tc.doc))
			var apiErr struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatal(err)
			}
			if err := resp.Body.Close(); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%+v)", resp.StatusCode, apiErr)
			}
			if apiErr.Field != tc.field {
				t.Errorf("field %q, want %q (error: %s)", apiErr.Field, tc.field, apiErr.Error)
			}
			if apiErr.Error == "" {
				t.Error("empty error message")
			}
		})
	}

	// Malformed JSON is also a 400, not a 500.
	resp := postRun(t, hs.URL, []byte(`{"n":`))
	_, _ = io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON status %d, want 400", resp.StatusCode)
	}
}

// TestE2EStatsAndFamilies sanity-checks the observability surface.
func TestE2EStatsAndFamilies(t *testing.T) {
	clock := serve.NewFakeClock(time.Unix(1_700_000_000, 0))
	srv, hs := newTestServer(t, serve.Config{Clock: clock, SnapshotTTL: time.Second})

	doc := readExample(t, "kuramoto.json")
	for i := 0; i < 3; i++ {
		resp := postRun(t, hs.URL, doc)
		_, _ = io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The first snapshot was built lazily at some earlier fake-time;
	// advance past the TTL so the next read rebuilds with the counters.
	clock.Advance(2 * time.Second)
	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap serve.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if snap.Jobs != 3 || snap.Executions != 1 || snap.CacheHits != 2 {
		t.Errorf("snapshot jobs=%d execs=%d hits=%d, want 3/1/2", snap.Jobs, snap.Executions, snap.CacheHits)
	}
	if snap.PerFamily["kuramoto"] != 3 {
		t.Errorf("per-family %v, want kuramoto:3", snap.PerFamily)
	}
	if want := float64(2) / 3; snap.CacheHitRatio != want {
		t.Errorf("hit ratio %v, want %v", snap.CacheHitRatio, want)
	}
	if snap.CacheEntries != 1 {
		t.Errorf("cache entries %d, want 1", snap.CacheEntries)
	}

	// The snapshot provider is cached: an immediate re-read returns the
	// same build (same At), and advancing past the TTL refreshes it.
	s1 := srv.Snapshot()
	s2 := srv.Snapshot()
	if !s1.At.Equal(s2.At) {
		t.Errorf("snapshot rebuilt inside TTL: %v vs %v", s1.At, s2.At)
	}
	clock.Advance(2 * time.Second)
	s3 := srv.Snapshot()
	if s3.At.Equal(s1.At) {
		t.Error("snapshot not rebuilt after TTL")
	}

	rf, err := http.Get(hs.URL + "/v1/families")
	if err != nil {
		t.Fatal(err)
	}
	var fams struct {
		Families []string `json:"families"`
	}
	if err := json.NewDecoder(rf.Body).Decode(&fams); err != nil {
		t.Fatal(err)
	}
	if err := rf.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if len(fams.Families) < 6 {
		t.Errorf("families %v, want all six", fams.Families)
	}
	for fam := range families {
		found := false
		for _, f := range fams.Families {
			if f == fam {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s missing from %v", fam, fams.Families)
		}
	}

	rh, err := http.Get(hs.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(rh.Body)
	if err := rh.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if rh.StatusCode != http.StatusOK || !strings.Contains(string(hb), "ok") {
		t.Errorf("healthz %d %q", rh.StatusCode, hb)
	}
}

// TestE2ECachePersists pins that the cache outlives the server: a new
// server over the same cache directory answers a prior run from disk.
func TestE2ECachePersists(t *testing.T) {
	dir := t.TempDir()
	doc := readExample(t, "linstab.json")
	want, _ := directBody(t, doc)

	srv1, err := serve.New(serve.Config{Clock: serve.NewFakeClock(time.Unix(0, 0)), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := httptest.NewServer(srv1.Handler())
	resp := postRun(t, hs1.URL, doc)
	body, _ := io.ReadAll(resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("fresh body diverges")
	}
	hs1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, hs2 := newTestServer(t, serve.Config{CacheDir: dir})
	resp2 := postRun(t, hs2.URL, doc)
	body2, _ := io.ReadAll(resp2.Body)
	if err := resp2.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if got := resp2.Header.Get("X-Pomsimd-Cache"); got != "hit" {
		t.Errorf("restarted server cache header %q, want hit", got)
	}
	if !bytes.Equal(body2, want) {
		t.Fatal("restarted cache body diverges")
	}
	spec, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	hash, err := scenario.CanonicalHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv2.Executions(hash); n != 0 {
		t.Errorf("restarted server executed %d times, want 0", n)
	}
}

// slowSpec returns a long-running POM spec (tens of seconds of solver
// work, few sample rows) distinguished by i. Tests that need a job to
// still be running while they act cancel it before finishing.
func slowSpec(t testing.TB, i int) *scenario.Spec {
	t.Helper()
	doc := fmt.Sprintf(
		`{"n":40,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"gain":%d,"t_end":400000,"samples":2001}`, i+1)
	spec, err := scenario.Load(bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// waitState polls until the job reaches state (or fails the test).
func waitState(t testing.TB, j *serve.Job, want serve.JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		state, _ := j.State()
		if state == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q waiting for %q", j.ID, state, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2EQueueFull pins the typed 503 when the queue has no room. One
// slow job occupies the single worker, a second fills the depth-1
// queue, and a third distinct submission must bounce with 503.
func TestE2EQueueFull(t *testing.T) {
	srv, hs := newTestServer(t, serve.Config{Workers: 1, QueueDepth: 1})

	jA, _, err := srv.Submit(slowSpec(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, jA, serve.StateRunning) // the queue slot is free again
	jB, _, err := srv.Submit(slowSpec(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer jB.Cancel()
	defer jA.Cancel()

	doc := `{"n":40,"tcomp":0.8,"tcomm":0.2,"potential":{"kind":"tanh"},"offsets":[-1,1],"gain":3,"t_end":400000,"samples":2001}`
	resp := postRun(t, hs.URL, []byte(doc))
	_, _ = io.Copy(io.Discard, resp.Body)
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}
