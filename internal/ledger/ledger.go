// Package ledger is the build-plane flight recorder: a bounded,
// crash-safe structured history of every refresh/rebuild cycle the
// builder runs. Each entry carries the cycle's build ID and the
// numbers every other subsystem already computes but used to throw
// away — per-source fetch outcomes (mediator.RefreshReport), delta
// sizes (graph.Diff), differential-maintenance stats
// (struql.MatStats), page churn (core.RebuildInfo), publish
// generation, per-stage wall/alloc figures — plus the end-to-end
// freshness stamp: when a source change was observed and when the
// affected pages' new ETags became servable at the edge.
//
// Persistence is JSONL segments under one directory, written through
// an injectable fsx.FS. Every append rewrites the active segment with
// fsx.WriteFileAtomic (temp file + rename), so a crash at any write
// boundary leaves either the previous complete segment or the new
// one — never a torn line. Segments rotate at SegmentEntries and old
// segments are pruned beyond KeepSegments, bounding disk use; a
// bounded in-memory ring (MemoryEntries) serves queries without
// touching disk. Recovery scans segments oldest-first, ignores
// in-flight *.tmp debris, and drops any line that does not parse, so
// a ledger damaged by external means degrades to fewer entries, not
// an error.
package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"time"

	"strudel/internal/fsx"
	"strudel/internal/telemetry"
)

// SourceRecord is one source's outcome in a refresh cycle, lifted
// from mediator.SourceStatus.
type SourceRecord struct {
	Name  string `json:"name"`
	State string `json:"state"`
	// Unchanged: the fetched bytes matched the last-good copy's, so the
	// source was not re-wrapped.
	Unchanged    bool       `json:"unchanged,omitempty"`
	Attempts     int        `json:"attempts,omitempty"`
	Err          string     `json:"err,omitempty"`
	StaleSeconds float64    `json:"stale_seconds,omitempty"`
	Delta        *DeltaSize `json:"delta,omitempty"`
}

// DeltaSize summarizes a graph.Delta by cardinality only — the
// object lists themselves stay out of the ledger.
type DeltaSize struct {
	Added       int `json:"added,omitempty"`
	Removed     int `json:"removed,omitempty"`
	Changed     int `json:"changed,omitempty"`
	Labels      int `json:"labels,omitempty"`
	Collections int `json:"collections,omitempty"`
}

// EvalRecord is the differential-evaluation block maintenance tally
// (struql.MatStats) for the cycle.
type EvalRecord struct {
	Ops                int  `json:"ops,omitempty"`
	RowsRetained       int  `json:"rows_retained,omitempty"`
	RowsRechecked      int  `json:"rows_rechecked,omitempty"`
	RowsAdded          int  `json:"rows_added,omitempty"`
	RowsRemoved        int  `json:"rows_removed,omitempty"`
	BlocksDifferential int  `json:"blocks_differential,omitempty"`
	BlocksFallback     int  `json:"blocks_fallback,omitempty"`
	BlocksRebound      int  `json:"blocks_rebound,omitempty"`
	ListsRepaired      int  `json:"lists_repaired,omitempty"`
	Renumbered         bool `json:"renumbered,omitempty"`
}

// PageRecord is the page-churn accounting for the cycle.
type PageRecord struct {
	Total    int `json:"total"`
	Rendered int `json:"rendered"`
	Reused   int `json:"reused"`
	Pruned   int `json:"pruned,omitempty"`
}

// StageRecord is one build phase's wall time and heap-allocation
// delta. Alloc figures come from the process-wide allocation counter,
// so concurrent activity pollutes them — profiles, not accounting.
type StageRecord struct {
	Name       string  `json:"name"`
	WallMs     float64 `json:"wall_ms"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
}

// Freshness is the end-to-end propagation stamp for a cycle that
// changed the site: ObservedAt is when the source change was observed
// (the refresh start), ServableAt is when the affected pages' new
// ETags became servable at the edge (after the result swap).
type Freshness struct {
	ObservedAt         time.Time `json:"observed_at"`
	ServableAt         time.Time `json:"servable_at"`
	PropagationSeconds float64   `json:"propagation_seconds"`
}

// maxInvalidated caps the invalidated-path list persisted per entry;
// the full churn count survives in ETagChurn regardless.
const maxInvalidated = 64

// Entry is one refresh/rebuild cycle in the ledger. Seq is assigned
// by Append and is strictly increasing for the lifetime of the ledger
// directory (recovery resumes past the highest recovered Seq).
type Entry struct {
	Seq     uint64    `json:"seq"`
	BuildID string    `json:"build_id"`
	Site    string    `json:"site,omitempty"`
	Time    time.Time `json:"time"`
	// Trigger is what started the cycle: "manual" (strudel build),
	// "publish" (strudel build -publish), "initial" (serve startup
	// build) or "interval" (the refresh loop).
	Trigger string `json:"trigger"`
	// Mode is the rebuild mode: "full", "selective", "differential",
	// "noop", "dynamic" — or "failed" when the cycle errored before
	// producing a result.
	Mode string `json:"mode"`
	Err  string `json:"err,omitempty"`

	Sources []SourceRecord `json:"sources,omitempty"`
	Data    *DeltaSize     `json:"data,omitempty"`
	Eval    *EvalRecord    `json:"eval,omitempty"`
	Pages   PageRecord     `json:"pages"`

	// ETagChurn is how many published page ETags changed this cycle;
	// Invalidated lists their paths, capped at maxInvalidated.
	ETagChurn            int      `json:"etag_churn"`
	Invalidated          []string `json:"invalidated,omitempty"`
	InvalidatedTruncated bool     `json:"invalidated_truncated,omitempty"`

	// Generation is the publish generation when the cycle published
	// (-publish / serve -publish-dir); 0 otherwise.
	Generation int `json:"generation,omitempty"`

	Stages     []StageRecord `json:"stages,omitempty"`
	TotalMs    float64       `json:"total_ms"`
	TotalAlloc uint64        `json:"total_alloc_bytes,omitempty"`

	Freshness *Freshness `json:"freshness,omitempty"`
}

// StampFreshness records the observed→servable propagation interval
// on the entry. Zero stamps are ignored; a servable time before the
// observation clamps to zero propagation rather than going negative.
func (e *Entry) StampFreshness(observed, servable time.Time) {
	if observed.IsZero() || servable.IsZero() {
		return
	}
	prop := servable.Sub(observed).Seconds()
	if prop < 0 {
		prop = 0
	}
	e.Freshness = &Freshness{ObservedAt: observed, ServableAt: servable, PropagationSeconds: prop}
}

// Summary renders the entry as one human-readable line (the
// `strudel history` text format).
func (e Entry) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-14s %s/%s", e.Time.Format("2006-01-02T15:04:05Z07:00"), e.BuildID, e.Trigger, e.Mode)
	if e.Err != "" {
		fmt.Fprintf(&b, "  error: %s", e.Err)
		return b.String()
	}
	fmt.Fprintf(&b, "  %d pages (%d rendered, %d reused)", e.Pages.Total, e.Pages.Rendered, e.Pages.Reused)
	if e.ETagChurn > 0 {
		fmt.Fprintf(&b, ", %d etags churned", e.ETagChurn)
	}
	if e.Generation > 0 {
		fmt.Fprintf(&b, ", gen %d", e.Generation)
	}
	if n := len(e.Sources); n > 0 {
		fresh, unchanged := 0, 0
		for _, s := range e.Sources {
			if s.State == "fresh" {
				fresh++
			}
			if s.Unchanged {
				unchanged++
			}
		}
		fmt.Fprintf(&b, ", sources %d/%d fresh", fresh, n)
		if unchanged > 0 {
			fmt.Fprintf(&b, " (%d unchanged)", unchanged)
		}
	}
	fmt.Fprintf(&b, ", %.1fms", e.TotalMs)
	if e.Freshness != nil {
		fmt.Fprintf(&b, ", propagated in %.0fms", e.Freshness.PropagationSeconds*1000)
	}
	return b.String()
}

// Options configures Open. The zero value is a memory-only ledger
// with default bounds.
type Options struct {
	// FS is the filesystem for persistence; nil means fsx.OS.
	FS fsx.FS
	// Dir is the segment directory; "" disables persistence (the
	// ledger is memory-only).
	Dir string
	// SegmentEntries is the rotation threshold (default 64): the
	// active segment rotates once it holds this many entries.
	SegmentEntries int
	// KeepSegments bounds on-disk history (default 8): rotation
	// prunes segments beyond the newest KeepSegments.
	KeepSegments int
	// MemoryEntries bounds the in-memory ring serving queries
	// (default SegmentEntries * KeepSegments).
	MemoryEntries int
}

func (o *Options) defaults() {
	if o.FS == nil {
		o.FS = fsx.OS
	}
	if o.SegmentEntries <= 0 {
		o.SegmentEntries = 64
	}
	if o.KeepSegments <= 0 {
		o.KeepSegments = 8
	}
	if o.MemoryEntries <= 0 {
		o.MemoryEntries = o.SegmentEntries * o.KeepSegments
	}
}

// FreshnessBuckets are the strudel_freshness_propagation_seconds
// histogram bounds: sub-10ms delta rebuilds through multi-minute
// degraded-source recoveries.
var FreshnessBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 300,
}

// Ledger is the crash-safe cycle history. All methods are safe for
// concurrent use; the refresh loop appends while /debug/ledger and
// `strudel history` read.
type Ledger struct {
	mu      sync.Mutex
	fs      fsx.FS
	dir     string
	segCap  int
	keep    int
	memCap  int
	seq     uint64
	segNum  int     // active segment number
	active  []Entry // entries in the active segment
	mem     []Entry // bounded query ring, oldest first
	dropped int     // unparseable lines dropped during recovery

	// instrumentation (nil until Instrument)
	reg         *telemetry.Registry
	mEntries    *telemetry.Counter
	mPersistErr *telemetry.Counter
	mLastSeq    *telemetry.Gauge
	mProp       *telemetry.Histogram
}

func segName(n int) string { return fmt.Sprintf("seg-%06d.jsonl", n) }

// Open opens (or creates) a ledger. With a Dir it recovers existing
// segments: *.tmp debris from an interrupted atomic write is ignored
// (never deleted — it may belong to a live writer), unparseable lines
// are dropped, and sequence numbering resumes past the highest
// recovered entry.
func Open(opts Options) (*Ledger, error) {
	opts.defaults()
	l := &Ledger{
		fs:     opts.FS,
		dir:    opts.Dir,
		segCap: opts.SegmentEntries,
		keep:   opts.KeepSegments,
		memCap: opts.MemoryEntries,
		segNum: 1,
	}
	if l.dir == "" {
		return l, nil
	}
	if err := l.fs.MkdirAll(l.dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: mkdir %s: %w", l.dir, err)
	}
	segs, err := l.scanSegments()
	if err != nil {
		return nil, err
	}
	for i, n := range segs {
		entries := l.readSegment(n)
		for _, e := range entries {
			if e.Seq <= l.seq {
				continue // stale or duplicated line; keep the newest ordering
			}
			l.seq = e.Seq
			l.mem = append(l.mem, e)
		}
		if i == len(segs)-1 {
			l.segNum = n
			l.active = entries
		}
	}
	if len(segs) > 0 && len(l.active) >= l.segCap {
		l.segNum++
		l.active = nil
	}
	l.trimMem()
	return l, nil
}

// scanSegments lists segment numbers ascending. A missing directory
// is an empty ledger, not an error: a crash can take the MkdirAll
// with it.
func (l *Ledger) scanSegments() ([]int, error) {
	des, err := l.fs.ReadDir(l.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: scan %s: %w", l.dir, err)
	}
	var segs []int
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || fsx.IsTempName(name) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, "seg-%06d.jsonl", &n); err == nil && segName(n) == name {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// readSegment parses one segment, dropping lines that do not
// unmarshal — recovery tolerates external damage.
func (l *Ledger) readSegment(n int) []Entry {
	data, err := fsx.ReadFile(l.fs, l.segPath(n))
	if err != nil {
		return nil
	}
	var entries []Entry
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			l.dropped++
			continue
		}
		entries = append(entries, e)
	}
	return entries
}

func (l *Ledger) segPath(n int) string { return l.dir + "/" + segName(n) }

// Instrument registers the ledger's metric families on reg and makes
// every subsequent Append update them: strudel_ledger_entries_total,
// strudel_ledger_last_seq, strudel_ledger_persist_errors_total, the
// strudel_freshness_propagation_seconds histogram, and the
// strudel_ledger_build_info info-gauge naming the live build.
func (l *Ledger) Instrument(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reg = reg
	l.mEntries = reg.Counter("strudel_ledger_entries_total",
		"Refresh/rebuild cycles appended to the build ledger.")
	l.mPersistErr = reg.Counter("strudel_ledger_persist_errors_total",
		"Ledger segment writes that failed; the entry stays queryable in memory.")
	l.mLastSeq = reg.Gauge("strudel_ledger_last_seq",
		"Sequence number of the newest ledger entry.")
	l.mLastSeq.Set(float64(l.seq))
	l.mProp = reg.Histogram("strudel_freshness_propagation_seconds",
		"End-to-end freshness: seconds from a source change being observed to the affected pages' new ETags being servable at the edge.",
		FreshnessBuckets)
}

// Append assigns the next sequence number, persists the active
// segment atomically (when a directory is configured), rotates and
// prunes as needed, and updates the instrumentation. The stamped
// entry is returned. A persistence error does not lose the entry —
// it remains queryable in memory and the next append retries the
// whole segment — but is reported so callers can log it.
func (l *Ledger) Append(e Entry) (Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if len(e.Invalidated) > maxInvalidated {
		e.Invalidated = append([]string(nil), e.Invalidated[:maxInvalidated]...)
		e.InvalidatedTruncated = true
	}
	l.active = append(l.active, e)
	l.mem = append(l.mem, e)
	l.trimMem()

	var persistErr error
	if l.dir != "" {
		persistErr = l.persistActiveLocked()
	}
	if len(l.active) >= l.segCap {
		l.segNum++
		l.active = nil
		if l.dir != "" {
			l.pruneLocked()
		}
	}

	if l.mEntries != nil {
		l.mEntries.Inc()
		l.mLastSeq.Set(float64(l.seq))
		if persistErr != nil {
			l.mPersistErr.Inc()
		}
		if e.Freshness != nil {
			l.mProp.Observe(e.Freshness.PropagationSeconds)
		}
		l.reg.Info("strudel_ledger_build_info",
			"Identity of the newest build in the ledger (value is always 1).",
			"build_id", e.BuildID, "mode", e.Mode, "trigger", e.Trigger)
	}
	return e, persistErr
}

// persistActiveLocked rewrites the active segment in one atomic
// write: marshal every entry as a JSONL line, write to a temp file,
// rename over the segment. A crash at any boundary leaves the
// previous complete segment.
func (l *Ledger) persistActiveLocked() error {
	var buf strings.Builder
	for _, e := range l.active {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("ledger: marshal seq %d: %w", e.Seq, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := fsx.WriteFileAtomic(l.fs, l.segPath(l.segNum), []byte(buf.String()), 0o644); err != nil {
		return fmt.Errorf("ledger: persist %s: %w", segName(l.segNum), err)
	}
	return nil
}

// pruneLocked removes old segments at rotation so the directory
// holds at most KeepSegments files once the new active segment is
// written (keep-1 completed ones now). Prune errors are ignored: a
// leftover old segment costs disk, not correctness, and the next
// rotation retries.
func (l *Ledger) pruneLocked() {
	segs, err := l.scanSegments()
	if err != nil {
		return
	}
	for len(segs) > l.keep-1 {
		l.fs.Remove(l.segPath(segs[0]))
		segs = segs[1:]
	}
}

func (l *Ledger) trimMem() {
	if over := len(l.mem) - l.memCap; over > 0 {
		l.mem = append([]Entry(nil), l.mem[over:]...)
	}
}

// Len is the number of entries queryable in memory.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.mem)
}

// Dropped is the count of unparseable lines discarded at Open.
func (l *Ledger) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Last returns the newest entry, if any.
func (l *Ledger) Last() (Entry, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.mem) == 0 {
		return Entry{}, false
	}
	return l.mem[len(l.mem)-1], true
}

// Filter narrows Entries. Zero fields match everything.
type Filter struct {
	// Source matches entries that record a source of this name.
	Source string
	// Page matches entries whose invalidated-path list contains this
	// page path (capped at maxInvalidated paths per entry).
	Page string
	// BuildID matches exactly.
	BuildID string
	// Trigger matches exactly.
	Trigger string
	// Limit caps the result count; 0 means everything retained.
	Limit int
}

func (f Filter) match(e Entry) bool {
	if f.BuildID != "" && e.BuildID != f.BuildID {
		return false
	}
	if f.Trigger != "" && e.Trigger != f.Trigger {
		return false
	}
	if f.Source != "" {
		found := false
		for _, s := range e.Sources {
			if s.Name == f.Source {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if f.Page != "" {
		found := false
		for _, p := range e.Invalidated {
			if p == f.Page {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Entries returns matching entries newest-first.
func (l *Ledger) Entries(f Filter) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Entry
	for i := len(l.mem) - 1; i >= 0; i-- {
		if !f.match(l.mem[i]) {
			continue
		}
		out = append(out, l.mem[i])
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}
