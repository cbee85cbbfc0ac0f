// Structured access logging: one slog line per served request, in the
// same text schema every other layer logs in (see NewLogger), so an
// access line, an error line and a trace span of the same request all
// correlate on request_id — and on trace_id when the request was
// sampled.
package telemetry

import (
	"io"
	"log/slog"
	"time"
)

// AccessEntry is one served request, as the access log records it.
type AccessEntry struct {
	// Mode is the serving mode ("static", "dynamic").
	Mode string
	// Method and Path identify the request.
	Method, Path string
	// Status is the response status code; Bytes the body bytes written.
	Status int
	Bytes  int64
	// Duration is the wall time spent serving.
	Duration time.Duration
	// RequestID is the correlation ID assigned by the instrumentation
	// middleware; TraceID is the sampled request trace's ID ("" when
	// the request was not sampled).
	RequestID string
	TraceID   string
	// BuildID names the build the response was served from ("" when
	// the serving layer has no build-plane wiring) — the cross-plane
	// correlation key into the build ledger.
	BuildID string
}

// AccessLogger writes one structured line per request. A nil
// *AccessLogger is a valid no-op writer, so serving code can hold one
// unconditionally.
type AccessLogger struct {
	l *slog.Logger
}

// NewAccessLogger writes access lines to w in the shared slog text
// schema.
func NewAccessLogger(w io.Writer) *AccessLogger {
	return &AccessLogger{l: NewLogger(w)}
}

// Log writes one access line. Duration is logged in milliseconds
// (duration_ms) so lines are grep-able and plot-able without unit
// parsing.
func (a *AccessLogger) Log(e AccessEntry) {
	if a == nil || a.l == nil {
		return
	}
	attrs := []any{
		"mode", e.Mode,
		"method", e.Method,
		"path", e.Path,
		"status", e.Status,
		"bytes", e.Bytes,
		"duration_ms", float64(e.Duration) / float64(time.Millisecond),
		"request_id", e.RequestID,
	}
	if e.TraceID != "" {
		attrs = append(attrs, "trace_id", e.TraceID)
	}
	if e.BuildID != "" {
		attrs = append(attrs, "build_id", e.BuildID)
	}
	a.l.Info("access", attrs...)
}
