// Package api is the run side of the gridd HTTP surface: the versioned
// /v1 run-lifecycle API (asynchronous scenario runs with typed status,
// per-cell SSE progress streams and cooperative cancellation), the
// bounded run store behind it, and the middleware stack (body limits,
// JSON error envelope, request logging) the grid broker
// (internal/gridservice) wraps its own /v1 routes in.
package api

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Error is the JSON error envelope shared by every endpoint.
type Error struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the response body with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// DecodeBody decodes a request body into v strictly — a field v does not
// have is an error, not a default — and on failure answers 400 with
// "bad <what>: <err>". It reports whether v was decoded.
func DecodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad "+what+": "+err.Error())
		return false
	}
	return true
}

// WriteError writes the shared JSON error envelope.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, Error{Error: msg})
}

// WriteBusy writes a 429 with a Retry-After hint (the back-pressure
// answer of the run endpoints).
func WriteBusy(w http.ResponseWriter, retryAfter time.Duration, msg string) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, msg)
}

// Router is where a service registers its routes: an *http.ServeMux,
// or a recorder in tests that inspect the route table.
type Router interface {
	HandleFunc(pattern string, handler func(http.ResponseWriter, *http.Request))
}

// maxBody caps request bodies across the API: job specs and scenario
// specs are a few KB of JSON, so 1 MiB is generous.
const maxBody = 1 << 20

// statusWriter records the response code and body size for the request
// log while passing Flush through (the SSE stream needs the flusher).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Wrap applies the shared middleware stack around a service mux: the
// request-body cap and, when logger is non-nil, a request log line per
// call (method, path, status, duration).
func Wrap(h http.Handler, logger *log.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBody)
		}
		if logger == nil {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h.ServeHTTP(sw, r)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		logger.Printf("%s %s %d %s %dB run=%s",
			r.Method, r.URL.Path, code, time.Since(t0).Round(time.Microsecond),
			sw.bytes, runIDFromPath(r.URL.Path))
	})
}

// runIDFromPath extracts the run id from /v1/runs/{id}[/...] paths for
// request-log correlation ("-" when the path is not run-scoped).
func runIDFromPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/v1/runs/")
	if !ok {
		return "-"
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "-"
	}
	return rest
}
