package mediator

import (
	"fmt"
	"strings"
	"time"

	"strudel/internal/graph"
)

// SourceState classifies how one source fared during a Refresh.
type SourceState int

const (
	// Fresh: the source was fetched and wrapped successfully; the
	// warehouse reflects its current contents.
	Fresh SourceState = iota
	// Degraded: fetching or wrapping failed (or the circuit breaker
	// rejected the call), and the warehouse was built from the
	// source's last-good graph instead.
	Degraded
	// Failed: the source failed and no last-good graph exists; the
	// refresh as a whole was aborted with nothing committed.
	Failed
)

func (s SourceState) String() string {
	switch s {
	case Fresh:
		return "fresh"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return "unknown"
}

// SourceStatus is one source's outcome in a RefreshReport.
type SourceStatus struct {
	Name  string
	State SourceState
	// Unchanged marks a fresh source whose fetched bytes hashed the
	// same as its last-good copy's: it was not re-wrapped.
	Unchanged bool
	// Attempts counts fetch attempts made (0 when the breaker
	// rejected the call without trying).
	Attempts int
	// Err is the final fetch/wrap error for non-fresh sources.
	Err error
	// StaleSince is when the source first degraded without recovering
	// since; zero for fresh sources.
	StaleSince time.Time
	// Delta is the change in this source's wrapped graph relative to
	// its last-good graph: the diff of the two for a re-wrapped source,
	// empty for an unchanged or degraded one (it reuses the last-good
	// graph verbatim), nil on the source's very first successful wrap
	// (no baseline to compare against).
	Delta *graph.Delta
}

// RefreshReport describes a warehouse refresh source by source,
// replacing all-or-nothing errors: a refresh that served every source
// fresh, one that fell back to last-good data for some, and one that
// had to abort all leave a report behind.
type RefreshReport struct {
	// At is when the refresh started.
	At time.Time
	// Sources holds one status per configured source, in registration
	// order (truncated at the failing source when the refresh aborts).
	Sources []SourceStatus
	// Warehouse is the change in the committed warehouse graph relative
	// to the previous refresh's warehouse, exactly as graph.Diff of the
	// two reports it. It is nil on the first refresh (no baseline —
	// callers must treat nil as "anything may have changed") and on
	// aborted refreshes (nothing committed), and empty when no source
	// was re-wrapped (the warehouse is the previous one). It subsumes
	// the per-source deltas: GAV-mapped attribute renamings and merges
	// are diffed after mapping, at warehouse granularity.
	Warehouse *graph.Delta
}

// Ok reports whether every source was fresh.
func (r *RefreshReport) Ok() bool {
	return len(r.Degraded()) == 0 && !r.Failed()
}

// Degraded lists the names of sources served from last-good data.
func (r *RefreshReport) Degraded() []string {
	var out []string
	for _, s := range r.Sources {
		if s.State == Degraded {
			out = append(out, s.Name)
		}
	}
	return out
}

// Failed reports whether the refresh aborted on a source with no
// last-good fallback.
func (r *RefreshReport) Failed() bool {
	for _, s := range r.Sources {
		if s.State == Failed {
			return true
		}
	}
	return false
}

// Source returns the status for a named source.
func (r *RefreshReport) Source(name string) (SourceStatus, bool) {
	for _, s := range r.Sources {
		if s.Name == name {
			return s, true
		}
	}
	return SourceStatus{}, false
}

// Summary renders a one-line human-readable digest, e.g.
// "2/3 sources fresh (1 unchanged); degraded: b.csv (stale 2m30s):
// network down". Staleness is relative to the refresh time (At minus
// StaleSince).
func (r *RefreshReport) Summary() string {
	fresh, unchanged := 0, 0
	var bad []string
	for _, s := range r.Sources {
		switch s.State {
		case Fresh:
			fresh++
			if s.Unchanged {
				unchanged++
			}
		default:
			detail := fmt.Sprintf("%s: %s", s.State, s.Name)
			if !s.StaleSince.IsZero() {
				detail += fmt.Sprintf(" (stale %s)", r.At.Sub(s.StaleSince).Round(time.Second))
			}
			if s.Err != nil {
				detail += ": " + s.Err.Error()
			}
			bad = append(bad, detail)
		}
	}
	out := fmt.Sprintf("%d/%d sources fresh", fresh, len(r.Sources))
	if unchanged > 0 {
		out += fmt.Sprintf(" (%d unchanged)", unchanged)
	}
	if len(bad) > 0 {
		out += "; " + strings.Join(bad, "; ")
	}
	return out
}
