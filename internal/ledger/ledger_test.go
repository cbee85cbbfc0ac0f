package ledger

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"strudel/internal/graph"
	"strudel/internal/mediator"
	"strudel/internal/telemetry"
)

func testEntry(i int) Entry {
	return Entry{
		BuildID:     "build-" + padN(i),
		Site:        "unit",
		Trigger:     "interval",
		Mode:        "selective",
		Pages:       PageRecord{Total: 3, Rendered: 1, Reused: 2},
		ETagChurn:   i,
		Invalidated: []string{"/index.html"},
		TotalMs:     float64(i),
	}
}

func padN(i int) string {
	s := "0000" + itoa(i)
	return s[len(s)-4:]
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestLedgerAppendRotatePersistRecover(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentEntries: 4, KeepSegments: 2}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 11
	for i := 1; i <= n; i++ {
		e, err := l.Append(testEntry(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if e.Seq != uint64(i) {
			t.Fatalf("append %d: seq %d", i, e.Seq)
		}
		if e.Time.IsZero() {
			t.Fatalf("append %d: zero time", i)
		}
	}
	// 11 entries at 4/segment: segments 1..3, keep 2 ⇒ segment 1
	// pruned when segment 2 filled.
	names, _ := os.ReadDir(dir)
	var segs []string
	for _, de := range names {
		segs = append(segs, de.Name())
	}
	if len(segs) != 2 || segs[0] != "seg-000002.jsonl" || segs[1] != "seg-000003.jsonl" {
		t.Fatalf("segments on disk: %v", segs)
	}

	// Reopen: recovery resumes numbering past the retained history.
	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Len(); got != 7 { // seqs 5..11 survive the prune
		t.Fatalf("recovered %d entries, want 7", got)
	}
	last, ok := r.Last()
	if !ok || last.Seq != n || last.BuildID != "build-"+padN(n) {
		t.Fatalf("recovered last = %+v", last)
	}
	e, err := r.Append(testEntry(n + 1))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != n+1 {
		t.Fatalf("post-recovery seq = %d, want %d", e.Seq, n+1)
	}
}

func TestLedgerRecoveryDropsDamagedLinesAndIgnoresTmp(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SegmentEntries: 8, KeepSegments: 2}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Externally damage the segment: append garbage, and drop tmp
	// debris as an interrupted atomic write would.
	seg := filepath.Join(dir, "seg-000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	os.WriteFile(seg, append(data, []byte("{torn line\n")...), 0o644)
	os.WriteFile(seg+".tmp", []byte("in-flight"), 0o644)
	os.WriteFile(filepath.Join(dir, "seg-000009.jsonl.tmp"), []byte("{"), 0o644)

	r, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("recovered %d entries, want 3", r.Len())
	}
	if r.Dropped() != 1 {
		t.Fatalf("dropped %d lines, want 1", r.Dropped())
	}
	// The tmp debris must survive recovery untouched (it may belong
	// to a live writer).
	if _, err := os.Stat(seg + ".tmp"); err != nil {
		t.Fatalf("tmp debris removed: %v", err)
	}
}

func TestLedgerMemoryOnlyAndFilters(t *testing.T) {
	l, err := Open(Options{MemoryEntries: 100})
	if err != nil {
		t.Fatal(err)
	}
	a := testEntry(1)
	a.Sources = []SourceRecord{{Name: "refs.bib", State: "fresh"}}
	a.Invalidated = []string{"/index.html", "/p1.html"}
	b := testEntry(2)
	b.Trigger = "manual"
	b.Sources = []SourceRecord{{Name: "other.bib", State: "degraded"}}
	b.Invalidated = nil
	for _, e := range []Entry{a, b} {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Entries(Filter{}); len(got) != 2 || got[0].Seq != 2 {
		t.Fatalf("unfiltered = %+v", got)
	}
	if got := l.Entries(Filter{Source: "refs.bib"}); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("source filter = %+v", got)
	}
	if got := l.Entries(Filter{Page: "/p1.html"}); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("page filter = %+v", got)
	}
	if got := l.Entries(Filter{Trigger: "manual"}); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("trigger filter = %+v", got)
	}
	if got := l.Entries(Filter{BuildID: "build-0002"}); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("build filter = %+v", got)
	}
	if got := l.Entries(Filter{Limit: 1}); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("limit = %+v", got)
	}
}

func TestLedgerInvalidatedTruncation(t *testing.T) {
	l, _ := Open(Options{})
	e := testEntry(1)
	e.Invalidated = nil
	for i := 0; i < maxInvalidated+10; i++ {
		e.Invalidated = append(e.Invalidated, "/p"+itoa(i)+".html")
	}
	e.ETagChurn = len(e.Invalidated)
	got, err := l.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Invalidated) != maxInvalidated || !got.InvalidatedTruncated {
		t.Fatalf("truncation: %d paths, flag %v", len(got.Invalidated), got.InvalidatedTruncated)
	}
	if got.ETagChurn != maxInvalidated+10 {
		t.Fatalf("churn count must survive truncation, got %d", got.ETagChurn)
	}
}

func TestLedgerInstrumentAndFreshnessHistogram(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, _ := Open(Options{})
	l.Instrument(reg)
	e := testEntry(1)
	obs := time.Now().Add(-50 * time.Millisecond)
	e.StampFreshness(obs, time.Now())
	if _, err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	noop := testEntry(2)
	noop.Mode = "noop" // no freshness: nothing changed
	l.Append(noop)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	for _, want := range []string{
		"strudel_ledger_entries_total 2",
		"strudel_ledger_last_seq 2",
		"strudel_freshness_propagation_seconds_count 1",
		`strudel_ledger_build_info{build_id="build-0002",mode="noop",trigger="interval"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// Info has replace semantics: exactly one build_info series.
	if n := strings.Count(body, "strudel_ledger_build_info{"); n != 1 {
		t.Errorf("build_info series = %d, want 1", n)
	}
}

func TestStampFreshnessClampsAndIgnoresZero(t *testing.T) {
	var e Entry
	e.StampFreshness(time.Time{}, time.Now())
	if e.Freshness != nil {
		t.Fatal("zero observed must not stamp")
	}
	now := time.Now()
	e.StampFreshness(now.Add(time.Second), now)
	if e.Freshness == nil || e.Freshness.PropagationSeconds != 0 {
		t.Fatalf("negative propagation must clamp to 0: %+v", e.Freshness)
	}
}

func TestLedgerHandlerFilters(t *testing.T) {
	l, _ := Open(Options{})
	a := testEntry(1)
	a.Sources = []SourceRecord{{Name: "refs.bib", State: "fresh"}}
	l.Append(a)
	l.Append(testEntry(2))
	wd := NewWatchdog(WatchdogConfig{})
	wd.Observe(a)
	h := l.Handler(wd)

	get := func(url string) View {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d", url, rec.Code)
		}
		var v View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		return v
	}
	if v := get("/debug/ledger"); len(v.Entries) != 2 || v.Watchdog == nil || v.Watchdog.Samples != 1 {
		t.Fatalf("unfiltered view: %+v", v)
	}
	if v := get("/debug/ledger?source=refs.bib"); len(v.Entries) != 1 || v.Entries[0].Seq != 1 {
		t.Fatalf("source view: %+v", v)
	}
	if v := get("/debug/ledger?page=/index.html&limit=1"); len(v.Entries) != 1 {
		t.Fatalf("page view: %+v", v)
	}
	if v := get("/debug/ledger?build=build-0002"); len(v.Entries) != 1 || v.Entries[0].Seq != 2 {
		t.Fatalf("build view: %+v", v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/ledger?limit=x", nil))
	if rec.Code != 400 {
		t.Fatalf("bad limit = %d, want 400", rec.Code)
	}
}

func TestWatchdogSlowRebuildEWMA(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{MinSamples: 3, SlowFactor: 3})
	reg := telemetry.NewRegistry()
	wd.Instrument(reg)
	mk := func(totalMs float64) Entry {
		e := testEntry(1)
		e.TotalMs = totalMs
		return e
	}
	for i := 0; i < 4; i++ {
		if alerts := wd.Observe(mk(10)); len(alerts) != 0 {
			t.Fatalf("steady state alerted: %+v", alerts)
		}
	}
	alerts := wd.Observe(mk(100))
	if len(alerts) != 1 || alerts[0].Kind != AlertSlowRebuild {
		t.Fatalf("regression alerts = %+v", alerts)
	}
	snap := wd.Snapshot()
	if snap.AlertsTotal != 1 || len(snap.Active) != 1 || snap.Active[0] != AlertSlowRebuild {
		t.Fatalf("snapshot = %+v", snap)
	}
	// Recovery clears the active gauge.
	wd.Observe(mk(snap.EWMAMs))
	if s := wd.Snapshot(); len(s.Active) != 0 {
		t.Fatalf("active after recovery = %+v", s.Active)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	body := sb.String()
	if !strings.Contains(body, `strudel_watchdog_alerts_total{kind="slow_rebuild"} 1`) {
		t.Errorf("counter missing in:\n%s", body)
	}
	if !strings.Contains(body, `strudel_watchdog_alert_active{kind="slow_rebuild"} 0`) {
		t.Errorf("active gauge not cleared in:\n%s", body)
	}
}

func TestWatchdogDegradedSourceAndPropagation(t *testing.T) {
	wd := NewWatchdog(WatchdogConfig{DegradedAfter: time.Minute, PropagationTarget: 100 * time.Millisecond})
	e := testEntry(1)
	e.Sources = []SourceRecord{
		{Name: "refs.bib", State: "degraded", StaleSeconds: 120, Err: "timeout"},
		{Name: "ok.bib", State: "fresh"},
	}
	e.Freshness = &Freshness{PropagationSeconds: 0.5}
	alerts := wd.Observe(e)
	kinds := map[string]bool{}
	for _, a := range alerts {
		kinds[a.Kind] = true
	}
	if len(alerts) != 2 || !kinds[AlertSourceDegraded] || !kinds[AlertPropagation] {
		t.Fatalf("alerts = %+v", alerts)
	}
	// Failed cycles must not season the EWMA.
	fail := testEntry(2)
	fail.Err = "boom"
	fail.TotalMs = 10_000
	wd.Observe(fail)
	if snap := wd.Snapshot(); snap.Samples != 1 {
		t.Fatalf("failed cycle seasoned EWMA: %+v", snap)
	}
}

func TestEntrySummary(t *testing.T) {
	e := testEntry(3)
	e.Generation = 7
	e.Sources = []SourceRecord{{Name: "refs.bib", State: "fresh"}}
	e.StampFreshness(time.Now().Add(-10*time.Millisecond), time.Now())
	s := e.Summary()
	for _, want := range []string{"build-0003", "interval/selective", "3 pages", "gen 7", "sources 1/1 fresh", "propagated in"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
	fail := Entry{BuildID: "b", Err: "boom"}
	if s := fail.Summary(); !strings.Contains(s, "error: boom") {
		t.Errorf("failure summary = %q", s)
	}
}

// TestSourceRecordsUnchanged: a source the mediator did not re-wrap is
// marked unchanged in the entry's JSON and its summary line; a
// re-wrapped one is not.
func TestSourceRecordsUnchanged(t *testing.T) {
	rep := &mediator.RefreshReport{Sources: []mediator.SourceStatus{
		{Name: "a.bib", State: mediator.Fresh, Unchanged: true, Delta: &graph.Delta{}},
		{Name: "b.bib", State: mediator.Fresh, Delta: &graph.Delta{ChangedObjects: []string{"pub1"}}},
	}}
	e := testEntry(1)
	e.Sources = SourceRecords(rep)
	if !e.Sources[0].Unchanged || e.Sources[1].Unchanged {
		t.Fatalf("records = %+v", e.Sources)
	}
	js, err := json.Marshal(e.Sources)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(js), `"unchanged":true`); got != 1 {
		t.Errorf("JSON %s carries %d unchanged flags, want 1", js, got)
	}
	if s := e.Summary(); !strings.Contains(s, "sources 2/2 fresh (1 unchanged)") {
		t.Errorf("summary %q does not count the unchanged source", s)
	}
}
