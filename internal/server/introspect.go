// Introspection endpoints and structured logging. The debug surface
// grows two query-level views: /debug/explain (the profiled plan of
// the site's query stage) and /debug/provenance?page=… (why a page
// exists and which source objects it consumed). Log output goes
// through one shared slog.Logger whose lines carry request IDs, so a
// log line, a metric spike and a trace span of the same request can be
// correlated.
package server

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"

	"strudel/internal/telemetry"
)

var logPtr atomic.Pointer[slog.Logger]

// SetLogger replaces the package logger (telemetry.NewLogger output by
// default). Pass the same logger the CLI uses so server and build log
// lines share one schema.
func SetLogger(l *slog.Logger) {
	if l != nil {
		logPtr.Store(l)
	}
}

func logger() *slog.Logger {
	if l := logPtr.Load(); l != nil {
		return l
	}
	l := telemetry.NewLogger(os.Stderr)
	logPtr.CompareAndSwap(nil, l)
	return logPtr.Load()
}

// requestIDKey carries the per-request correlation ID in the request
// context.
type requestIDKey struct{}

// RequestID returns the request's correlation ID, assigned by
// Instrument; "" for requests outside an instrumented chain.
func RequestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// withRequestID tags the request with a fresh correlation ID.
func withRequestID(r *http.Request) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), requestIDKey{},
		telemetry.NewID("req")))
}

// Introspector supplies the query-level debug views as closures, so
// the server package needs no dependency on the build pipeline. Either
// field may be nil; its endpoint then answers 404.
type Introspector struct {
	// Explain returns the profiled plan of the site's query stage
	// (core.Explain); Provenance returns the provenance record of one
	// page by path or object name, or false when the page is unknown.
	// Both re-evaluate the queries, so the handlers serialize calls.
	Explain    func() (any, error)
	Provenance func(page string) (any, bool, error)
}

// AttachIntrospection mounts the query-level debug endpoints:
//
//	/debug/explain            profiled plan of the site's query stage (JSON)
//	/debug/provenance?page=P  provenance of one generated page (JSON)
func AttachIntrospection(mux *http.ServeMux, in Introspector) {
	// One query-stage re-run at a time, whichever endpoint asks.
	var evalMu sync.Mutex
	mux.HandleFunc("/debug/explain", func(w http.ResponseWriter, r *http.Request) {
		if in.Explain == nil {
			http.NotFound(w, r)
			return
		}
		evalMu.Lock()
		ex, err := in.Explain()
		evalMu.Unlock()
		if err != nil {
			internalError(w, r, nil, "debug", err)
			return
		}
		writeJSON(w, ex)
	})
	mux.HandleFunc("/debug/provenance", func(w http.ResponseWriter, r *http.Request) {
		if in.Provenance == nil {
			http.NotFound(w, r)
			return
		}
		page := r.URL.Query().Get("page")
		if page == "" {
			http.Error(w, "missing ?page= parameter", http.StatusBadRequest)
			return
		}
		evalMu.Lock()
		pp, ok, err := in.Provenance(page)
		evalMu.Unlock()
		if err != nil {
			internalError(w, r, nil, "debug", err)
			return
		}
		if !ok {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, pp)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
