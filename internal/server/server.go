// Package server serves STRUDEL-generated Web sites over HTTP, in the
// two evaluation modes the paper discusses (Secs. 1 and 6): static —
// the completely materialized site's pages are served from memory —
// and dynamic — only the root is precomputed, and each click runs the
// page's decomposed query at request time, with query-result caching
// to reduce click time. Both modes serve through one page handler,
// the Edge (edge.go): NewEdge over a SiteSource for a materialized
// site, DynamicEdge for click-time pages.
//
// Observability: Instrument wraps a handler with request counting and
// latency histograms per serving mode, and AttachDebug exposes the
// live introspection endpoints (/metrics in Prometheus text format,
// /debug/vars, /debug/pprof) that back the paper's click-time
// measurements (Sec. 6).
package server

import (
	"expvar"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"strudel/internal/telemetry"
)

// internalError answers a failed request without leaking the error
// into the response body: the client gets a generic page, and the
// detail goes to the structured log (with the request's correlation
// ID) and the error counter instead.
func internalError(w http.ResponseWriter, r *http.Request, reg *telemetry.Registry, mode string, err error) {
	logger().Error("internal error",
		"mode", mode, "path", r.URL.Path, "request_id", RequestID(r), "err", err)
	if reg != nil {
		reg.Counter("strudel_http_internal_errors_total",
			"Requests that failed with an internal error, by serving mode.",
			"mode", mode).Inc()
	}
	http.Error(w, "internal error", http.StatusInternalServerError)
}

// statusWriter captures the response status and body byte count for
// classification and accounting. It forwards the optional
// http.ResponseWriter upgrades — Flush for streaming handlers,
// ReadFrom for sendfile-style copies — that a plain embedded wrapper
// would silently hide, and exposes Unwrap so http.ResponseController
// can reach any others.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer's Flusher, when it has one.
// Without this, wrapping a streaming handler in Instrument would make
// http.Flusher assertions fail and buffer the whole response.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ReadFrom keeps the underlying writer's optimized copy path (e.g.
// sendfile in net/http) reachable through the wrapper, still counting
// status and bytes.
func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var n int64
	var err error
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		n, err = io.Copy(w.ResponseWriter, src)
	}
	w.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Observability bundles the serving-plane observers the instrumented
// middleware feeds. Every field except Registry may be nil; a nil
// observer is simply skipped, so callers opt into exactly the
// reporting they want.
type Observability struct {
	// Registry receives the fixed-cardinality request metrics.
	Registry *telemetry.Registry
	// Accounting receives one Record per request (per-page table).
	Accounting *Accounting
	// SLO receives one latency/error observation per request.
	SLO *telemetry.SLO
	// AccessLog writes one structured line per request.
	AccessLog *telemetry.AccessLogger
	// Tracer samples request traces; the sampled request's root span
	// rides the request context into the handler.
	Tracer *telemetry.RequestTracer
	// Inflight tracks requests currently being served for /debug/ops.
	Inflight *Inflight
	// BuildID, when set, names the build the response was served from
	// (read once per request, at completion); it lands in the access
	// log and on sampled request traces, correlating the serving plane
	// with the build ledger.
	BuildID func() string
}

// Instrument wraps a handler with per-mode request telemetry: a
// request counter labeled by status class, a latency histogram
// (telemetry.DefBuckets, seconds), and an in-flight gauge. mode is
// "static" or "dynamic" (any short tag works). All series register
// eagerly so /metrics shows them before the first request.
func Instrument(reg *telemetry.Registry, mode string, next http.Handler) http.Handler {
	return InstrumentObserved(Observability{Registry: reg}, mode, next)
}

// InstrumentObserved is Instrument plus the serving-plane observers:
// per-page accounting, SLO tracking, access logging, sampled request
// tracing and in-flight tracking — one middleware, one status/bytes
// capture, one clock read shared by all of them.
func InstrumentObserved(obs Observability, mode string, next http.Handler) http.Handler {
	var classes [6]*telemetry.Counter
	var latency *telemetry.Histogram
	var inflight *telemetry.Gauge
	if obs.Registry != nil {
		for i, cl := range []string{"1xx", "2xx", "3xx", "4xx", "5xx", "other"} {
			classes[i] = obs.Registry.Counter("strudel_http_requests_total",
				"HTTP requests served, by serving mode and status class.",
				"mode", mode, "class", cl)
		}
		latency = obs.Registry.Histogram("strudel_http_request_seconds",
			"HTTP request latency in seconds, by serving mode.",
			telemetry.DefBuckets, "mode", mode)
		inflight = obs.Registry.Gauge("strudel_http_inflight_requests",
			"Requests currently being served, by serving mode.",
			"mode", mode)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		if inflight != nil {
			inflight.Add(1)
		}
		// Assign the correlation ID here, at the outermost instrumented
		// layer, so every log line of the request can carry it.
		r = withRequestID(r)
		reqID := RequestID(r)
		var tr *telemetry.Trace
		if obs.Tracer != nil {
			if tr = obs.Tracer.Start(r.Method + " " + r.URL.Path); tr != nil {
				r = r.WithContext(telemetry.ContextWithSpan(r.Context(), tr.Root()))
			}
		}
		release := obs.Inflight.Track(reqID, r.Method, r.URL.Path, t0)
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		release()
		if inflight != nil {
			inflight.Add(-1)
		}
		d := time.Since(t0)
		if latency != nil {
			latency.Observe(d.Seconds())
		}
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		if classes[0] != nil {
			if i := status/100 - 1; i >= 0 && i < 5 {
				classes[i].Inc()
			} else {
				classes[5].Inc()
			}
		}
		obs.Accounting.Record(r.URL.Path, status, sw.bytes, d, time.Now())
		if obs.SLO != nil {
			obs.SLO.Observe(d, status >= 500)
		}
		buildID := ""
		if obs.BuildID != nil {
			buildID = obs.BuildID()
		}
		if obs.Tracer != nil && tr != nil {
			tr.Root().SetAttr("status", status)
			if buildID != "" {
				tr.Root().SetAttr("build_id", buildID)
			}
			obs.Tracer.Finish(tr)
		}
		if obs.AccessLog != nil {
			traceID := ""
			if tr != nil {
				traceID = tr.ID
			}
			obs.AccessLog.Log(telemetry.AccessEntry{
				Mode: mode, Method: r.Method, Path: r.URL.Path,
				Status: status, Bytes: sw.bytes, Duration: d,
				RequestID: reqID, TraceID: traceID, BuildID: buildID,
			})
		}
	})
}

// AttachDebug mounts the live introspection endpoints on a mux:
//
//	/metrics       the registry in Prometheus text exposition format
//	/debug/vars    expvar (Go runtime memstats and cmdline)
//	/debug/pprof/  the standard pprof profiles
func AttachDebug(mux *http.ServeMux, reg *telemetry.Registry) {
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
