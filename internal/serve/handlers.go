package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"repro/internal/archive"
	"repro/internal/scenario"
)

// Handler returns the service's HTTP API:
//
//	POST   /v1/run              submit a spec, stream its rows (NDJSON)
//	POST   /v1/jobs             submit a spec, return the job handle
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/result stream a job's rows (NDJSON)
//	GET    /v1/stats            state snapshot
//	GET    /v1/families         registered scenario families
//	GET    /v1/healthz          liveness probe
//
// Streaming responses carry X-Pomsimd-Job and X-Pomsimd-Cache headers
// and X-Pomsimd-Status / X-Pomsimd-Rows trailers. Validation failures
// are 400 with the offending field path; admission refusals are 429
// with Retry-After; a full queue is 503.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/families", s.handleFamilies)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// apiError is the JSON error body. Field carries the offending config
// path (e.g. "pom.sigma") when the error is a validation failure.
type apiError struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone; nothing to do
}

// writeSubmitError maps a Submit (or decode) error to its HTTP shape.
func writeSubmitError(w http.ResponseWriter, err error) {
	var rej *RejectedError
	var fe *scenario.FieldError
	switch {
	case errors.As(err, &rej):
		if rej.RetryAfter > 0 {
			secs := int(math.Ceil(rej.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.As(err, &fe):
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error(), Field: fe.Path})
	default:
		// Everything else Submit can surface is a malformed or invalid
		// request document — a client error, never a 500.
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	}
}

// decodeSpec reads and validates the request body as a scenario spec.
func decodeSpec(w http.ResponseWriter, r *http.Request) (*scenario.Spec, error) {
	return scenario.Load(http.MaxBytesReader(w, r.Body, 1<<20))
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	j, kind, err := s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	s.streamJob(w, r, j, string(kind))
}

// streamJob writes a job's NDJSON rows, following the live buffer for
// executing jobs and rendering the archived record row by row for cache
// hits. A failed write or the request context going away stops the
// stream (status "disconnected") but never the job — a disconnected
// client's run completes into the cache regardless.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *Job, kind string) {
	var rec *archive.Record
	if j.buf == nil {
		cached, ok, err := s.CachedRecord(j.Hash)
		if err != nil || !ok {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: "serve: reading cache entry failed"})
			return
		}
		rec = cached
	}

	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Pomsimd-Job", j.ID)
	h.Set("X-Pomsimd-Cache", kind)
	h.Set("Trailer", "X-Pomsimd-Status, X-Pomsimd-Rows")
	w.WriteHeader(http.StatusOK)

	status := "disconnected"
	if rec != nil {
		if writeRecord(w, rec) {
			status = string(StateDone)
		}
		h.Set("X-Pomsimd-Status", status)
		h.Set("X-Pomsimd-Rows", strconv.Itoa(rec.NSamples()))
		return
	}

	flusher, _ := w.(http.Flusher)
	_, completed, _ := j.buf.follow(r.Context(), 0, func(chunk []byte) bool {
		if _, werr := w.Write(chunk); werr != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	})
	if completed {
		state, _ := j.State()
		status = string(state)
	}
	h.Set("X-Pomsimd-Status", status)
	h.Set("X-Pomsimd-Rows", strconv.Itoa(j.buf.snapshotRows()))
}

// jobStatus is the job-API JSON shape.
type jobStatus struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Family string `json:"family"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Rows   int    `json:"rows"`
	Error  string `json:"error,omitempty"`
}

func statusOf(j *Job) jobStatus {
	state, jerr := j.State()
	st := jobStatus{
		ID:     j.ID,
		Hash:   j.Hash,
		Family: j.Family,
		State:  string(state),
		Cached: j.Cached(),
		Rows:   j.Rows(),
	}
	if jerr != nil {
		st.Error = jerr.Error()
	}
	return st
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	j, kind, err := s.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("X-Pomsimd-Cache", string(kind))
	writeJSON(w, http.StatusAccepted, statusOf(j))
}

func (s *Server) findJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "serve: unknown job " + id})
		return nil, false
	}
	return j, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.findJob(w, r); ok {
		writeJSON(w, http.StatusOK, statusOf(j))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.findJob(w, r)
	if !ok {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, statusOf(j))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.findJob(w, r)
	if !ok {
		return
	}
	if state, jerr := j.State(); state == StateFailed || state == StateCanceled {
		msg := "serve: job " + j.ID + " " + string(state)
		if jerr != nil {
			msg += ": " + jerr.Error()
		}
		writeJSON(w, http.StatusConflict, apiError{Error: msg})
		return
	}
	s.streamJob(w, r, j, "replay")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"families": scenario.Families()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
