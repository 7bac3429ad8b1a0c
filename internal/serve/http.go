package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"

	"ule/internal/harness"
)

// maxBodyBytes caps request bodies; a sweep spec is a few hundred bytes,
// so 1 MiB is generous.
const maxBodyBytes = 1 << 20

// HandlerConfig tunes NewHandler.
type HandlerConfig struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// NewHandler builds the uled HTTP API over a Manager:
//
//	POST   /v1/elections   one election; JSON result (async=1 → job)
//	POST   /v1/sweeps      one sweep; NDJSON stream (async=1 → job)
//	GET    /v1/jobs        job table snapshot
//	GET    /v1/jobs/{id}   job status + result when done
//	DELETE /v1/jobs/{id}   cancel a running job / delete a finished one
//	GET    /healthz        liveness
//	GET    /debug/vars     expvar counters (uled_* series)
//
// See docs/SERVICE.md for the endpoint contract.
func NewHandler(m *Manager, hc HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/elections", m.handleElection)
	mux.HandleFunc("POST /v1/sweeps", m.handleSweep)
	mux.HandleFunc("GET /v1/jobs", m.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", m.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", m.handleJobDelete)
	mux.HandleFunc("GET /healthz", m.handleHealthz)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if hc.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(marshalJSON(v), '\n'))
}

func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Wire structs marshal by construction; a failure is a bug.
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}

// RetryAfterSeconds is the Retry-After hint attached to every 503: long
// enough that a full job table has likely made progress, short enough
// that a drained slot is picked up quickly. Well-behaved clients (the
// examples/service client, the fleet coordinator) back off at least this
// long instead of hot-looping on a saturated server.
const RetryAfterSeconds = 1

// writeError maps a service error to its HTTP status: RequestError → 400,
// ErrNotFound → 404, ErrShutdown/ErrBusy → 503, anything else → 500. The
// error text carries the offending token (parsers quote it), so a client
// sees exactly which part of the request was rejected. 503s carry a
// Retry-After header so clients back off instead of hot-looping.
func writeError(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	code := http.StatusInternalServerError
	switch {
	case errors.As(err, &reqErr):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrShutdown), errors.Is(err, ErrBusy):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// decodeBody decodes a bounded JSON request body into v, rejecting
// unknown fields so typos surface as 400s instead of silent defaults, and
// anything after the one JSON value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("body: data after the JSON value")
	}
	return nil
}

// wantAsync reports whether the request selects job mode via query.
func wantAsync(r *http.Request) bool {
	v := strings.ToLower(r.URL.Query().Get("async"))
	return v == "1" || v == "true"
}

func (m *Manager) handleElection(w http.ResponseWriter, r *http.Request) {
	var req ElectionRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if wantAsync(r) {
		j, err := m.SubmitElection(req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Document())
		return
	}
	res, err := m.RunElection(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// flushWriter forwards every Write to the client immediately, so NDJSON
// consumers observe trial records as they complete.
type flushWriter struct {
	w     http.ResponseWriter
	f     http.Flusher
	wrote bool
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	fw.wrote = true
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

func (m *Manager) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec harness.Spec
	if err := decodeBody(w, r, &spec); err != nil {
		writeError(w, err)
		return
	}
	if wantAsync(r) {
		j, err := m.SubmitSweep(spec)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Document())
		return
	}
	// Pre-flight before committing to a 200: validation failures must
	// arrive as a 400, not as a broken stream.
	if err := m.checkOpen(); err != nil {
		writeError(w, err)
		return
	}
	p, err := m.validateSweep(&spec)
	if err != nil {
		writeError(w, err)
		return
	}
	f, _ := w.(http.Flusher)
	fw := &flushWriter{w: w, f: f}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := m.runSweep(r.Context(), p, harness.NewNDJSONEmitter(fw)); err != nil {
		if !fw.wrote {
			writeError(w, err)
			return
		}
		// Mid-stream failure (client gone, cancelled): append a terminal
		// error line; the consumer sees a line without "groups" and knows
		// the stream is truncated.
		fmt.Fprintf(fw, "{\"error\":%q}\n", err.Error())
	}
}

func (m *Manager) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{m.Jobs()})
}

func (m *Manager) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := m.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Document())
}

func (m *Manager) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	st, err := m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (m *Manager) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := m.checkOpen(); err != nil {
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{"draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ok"})
}
