// End-to-end test of the build-plane observability loop: a full
// refresh → delta rebuild → publish → serve cycle must produce a
// ledger entry whose build ID is observable everywhere the ISSUE
// promises — /debug/ledger, `strudel history`, the access log, the
// /debug/ops snapshot, the edge's build-info metric — with a
// non-empty freshness-propagation histogram under real load.
package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"strudel/internal/fsx"
	"strudel/internal/ledger"
	"strudel/internal/publish"
	"strudel/internal/server"
	"strudel/internal/telemetry"
	"strudel/internal/workload"
)

func TestServeLedgerCycle(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(t.TempDir(), "ledger")
	pubDir := filepath.Join(t.TempDir(), "pub")
	accessLog := &syncBuffer{}
	reg := telemetry.NewRegistry()
	stop := make(chan struct{})
	defer close(stop)
	h, c, err := newServing(m, serveOptions{
		reg:             reg,
		ops:             true,
		accessLog:       accessLog,
		hotPages:        4,
		pub:             publish.New(fsx.OS, pubDir, 3),
		ledgerDir:       ledgerDir,
		freshnessTarget: time.Minute,
		stop:            stop,
		logg:            discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Edit a source and refresh: the cycle must record an interval
	// entry with a freshness stamp and a publish generation.
	bib := filepath.Join(dir, "refs.bib")
	extra := `
@article{p3, title = {Gamma}, author = {Gil}, year = 1999, category = {X}}
`
	orig, err := os.ReadFile(bib)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bib, append(orig, []byte(extra)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.step("interval"); err != nil {
		t.Fatal(err)
	}
	// A second, unchanged refresh records a noop cycle (same build
	// content, no freshness stamp).
	if err := c.step("interval"); err != nil {
		t.Fatal(err)
	}

	// Serve real traffic so the access log and edge counters move.
	// (RunLoad prepends the leading slash itself.)
	rep, err := workload.RunLoad(h, []string{
		"index.html", "PaperPage_p1.html", "PaperPage_p3.html",
	}, workload.LoadOptions{Clients: 2, Requests: 60})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("load errors: %d", rep.Errors)
	}

	// The ledger on disk holds the whole story: initial, interval
	// (changed, stamped, published), interval noop.
	led, err := ledger.Open(ledger.Options{Dir: ledgerDir})
	if err != nil {
		t.Fatal(err)
	}
	entries := led.Entries(ledger.Filter{})
	if len(entries) != 3 {
		t.Fatalf("ledger entries = %d, want 3: %+v", len(entries), entries)
	}
	noop, changed, initial := entries[0], entries[1], entries[2]
	if initial.Trigger != "initial" || changed.Trigger != "interval" || noop.Trigger != "interval" {
		t.Fatalf("triggers = %s/%s/%s", initial.Trigger, changed.Trigger, noop.Trigger)
	}
	if noop.Mode != "noop" {
		t.Errorf("latest entry mode = %q, want noop", noop.Mode)
	}
	if changed.Mode == "noop" || changed.Freshness == nil {
		t.Fatalf("changed cycle not stamped: mode=%q freshness=%+v", changed.Mode, changed.Freshness)
	}
	if changed.Freshness.PropagationSeconds < 0 || changed.Freshness.PropagationSeconds > 30 {
		t.Errorf("propagation = %v, want small and non-negative", changed.Freshness.PropagationSeconds)
	}
	if changed.Generation <= initial.Generation {
		t.Errorf("generations did not advance: initial %d, changed %d",
			initial.Generation, changed.Generation)
	}
	if changed.Pages.Rendered == 0 || len(changed.Sources) == 0 {
		t.Errorf("changed entry missing detail: %+v", changed)
	}
	if len(changed.Stages) == 0 || changed.Stages[0].Name != "mediate" {
		t.Errorf("changed entry stages = %+v, want the mediate stage first", changed.Stages)
	}
	liveID := noop.BuildID
	if liveID == "" || changed.BuildID == "" || changed.BuildID == initial.BuildID {
		t.Fatalf("build IDs not distinct: %q %q %q", initial.BuildID, changed.BuildID, liveID)
	}

	get := func(path string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("GET", path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}

	// /debug/ledger answers the same entries, filterable.
	code, body := get("/debug/ledger")
	if code != 200 {
		t.Fatalf("/debug/ledger = %d %q", code, body)
	}
	var view ledger.View
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatal(err)
	}
	if len(view.Entries) != 3 || view.Entries[0].BuildID != liveID {
		t.Errorf("/debug/ledger entries = %d, head %q, want 3 head %q",
			len(view.Entries), view.Entries[0].BuildID, liveID)
	}
	if view.Watchdog == nil || view.Watchdog.Samples == 0 {
		t.Errorf("/debug/ledger watchdog = %+v, want seasoned", view.Watchdog)
	}
	code, body = get("/debug/ledger?build=" + changed.BuildID)
	if code != 200 {
		t.Fatalf("filtered /debug/ledger = %d", code)
	}
	var filtered ledger.View
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered.Entries) != 1 || filtered.Entries[0].BuildID != changed.BuildID {
		t.Errorf("build filter returned %+v", filtered.Entries)
	}
	code, body = get("/debug/ledger?source=refs.bib")
	if code != 200 || !strings.Contains(body, changed.BuildID) {
		t.Errorf("source filter: code %d, missing %q", code, changed.BuildID)
	}

	// The access log carries the live build's ID on every request.
	logged := accessLog.String()
	if !strings.Contains(logged, "build_id="+liveID) {
		t.Errorf("access log missing build_id %q:\n%s", liveID, firstLines(logged, 3))
	}

	// /debug/ops: build_id, edge stats and the last ledger entry inline.
	code, body = get("/debug/ops")
	if code != 200 {
		t.Fatalf("/debug/ops = %d", code)
	}
	var snap server.OpsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.BuildID != liveID {
		t.Errorf("ops build_id = %q, want %q", snap.BuildID, liveID)
	}
	if snap.Edge == nil || snap.Edge.Requests == 0 {
		t.Errorf("ops edge = %+v, want traffic", snap.Edge)
	}
	var last ledger.Entry
	if snap.LastBuild == nil {
		t.Fatal("ops last_build missing")
	}
	if err := json.Unmarshal(snap.LastBuild, &last); err != nil {
		t.Fatal(err)
	}
	if last.BuildID != liveID {
		t.Errorf("ops last_build = %q, want %q", last.BuildID, liveID)
	}
	if snap.Accounting == nil || len(snap.Accounting.Pages) == 0 {
		t.Fatal("ops accounting empty")
	}
	// Data staleness must be wired: the served data was observed at the
	// sources before now, so the exported age is positive.
	if snap.Accounting.Pages[0].DataStalenessSeconds <= 0 {
		t.Errorf("data staleness = %v, want > 0", snap.Accounting.Pages[0].DataStalenessSeconds)
	}

	// /metrics: the propagation histogram saw the changed cycle, and
	// the edge's build-info series names the live build.
	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "strudel_freshness_propagation_seconds_count 1") {
		t.Errorf("metrics missing propagation count 1:\n%s", grepLines(body, "freshness_propagation"))
	}
	if !strings.Contains(body, `strudel_edge_build_info{build_id="`+liveID+`"`) {
		t.Errorf("metrics missing edge build info for %q:\n%s", liveID, grepLines(body, "build_info"))
	}
	if !strings.Contains(body, "strudel_ledger_entries_total 3") {
		t.Errorf("metrics missing ledger entry count:\n%s", grepLines(body, "strudel_ledger"))
	}

	// `strudel history -dir` renders the same story offline.
	var out strings.Builder
	if err := runHistory(&out, ledgerDir, "", false, false, 20, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	hist := out.String()
	if !strings.Contains(hist, initial.BuildID) || !strings.Contains(hist, liveID) {
		t.Errorf("history output missing builds:\n%s", hist)
	}
	if strings.Count(hist, "\n") != 3 {
		t.Errorf("history lines = %d, want 3:\n%s", strings.Count(hist, "\n"), hist)
	}
	// JSONL mode round-trips entries.
	out.Reset()
	if err := runHistory(&out, ledgerDir, "", true, false, 20, time.Second, nil); err != nil {
		t.Fatal(err)
	}
	var first ledger.Entry
	if err := json.Unmarshal([]byte(strings.SplitN(out.String(), "\n", 2)[0]), &first); err != nil {
		t.Fatalf("history -json line not an entry: %v", err)
	}
	if first.BuildID != initial.BuildID {
		t.Errorf("history -json first = %q, want oldest %q", first.BuildID, initial.BuildID)
	}
}

// TestTopRendersBuildAndEdge drives `strudel top`'s renderer over a
// snapshot carrying the new build/edge/last-build sections.
func TestTopRendersBuildAndEdge(t *testing.T) {
	e := ledger.Entry{
		Seq: 7, BuildID: "build-0007", Trigger: "interval", Mode: "differential",
		Pages: ledger.PageRecord{Total: 10, Rendered: 2, Reused: 8}, ETagChurn: 2,
		TotalMs:   12.5,
		Freshness: &ledger.Freshness{PropagationSeconds: 0.042},
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	snap := &server.OpsSnapshot{
		Mode: "static", Ready: true,
		BuildID:   "build-0007",
		Edge:      &server.EdgeStats{Mode: "static", Requests: 100, HitsHot: 40, Hits304: 30, HitRatio: 0.7, HotPages: 4, Capacity: 8},
		LastBuild: raw,
	}
	var out strings.Builder
	renderOps(&out, snap, 5)
	frame := out.String()
	for _, want := range []string{
		"build  build-0007",
		"interval/differential",
		"2/10 pages rendered (8 reused)",
		"propagated 0.042s",
		"edge   static: 100 requests, 70.0% hit (40 hot, 30 304)",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("top frame missing %q:\n%s", want, frame)
		}
	}
}

// firstLines returns the first n lines of s, for terse failures.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// grepLines returns the lines of s containing substr.
func grepLines(s, substr string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
