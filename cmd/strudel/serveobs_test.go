// End-to-end tests for the serving observability surface: the full
// wiring from serve flags through newServing to /healthz, /readyz,
// /debug/ops and the `strudel top` dashboard, over a real site built
// from a real manifest.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"strudel/internal/ledger"
	"strudel/internal/mediator"
	"strudel/internal/resilience"
	"strudel/internal/server"
	"strudel/internal/telemetry"
)

// syncBuffer serializes writes so the access log can be written from
// handler goroutines and read by the test under -race.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func opsServer(t *testing.T, opts serveOptions) *httptest.Server {
	t.Helper()
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := newServing(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

func getStatus(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestServeOpsSurface drives the full flag surface (-metrics + -ops +
// -slo-target + -access-log) through a deterministic workload and
// checks the /debug/ops snapshot against exactly what was served.
func TestServeOpsSurface(t *testing.T) {
	accessLog := &syncBuffer{}
	reg := telemetry.NewRegistry()
	srv := opsServer(t, serveOptions{
		dynamic:   true,
		reg:       reg,
		ops:       true,
		sloTarget: time.Second,
		accessLog: accessLog,
		logg:      discardLogger(),
	})

	workload := []struct {
		path string
		hits int
		code int
	}{
		{"/", 5, 200},
		{"/page/PaperPage%28p1%29", 3, 200},
		{"/nope.html", 2, 404},
	}
	total := 0
	for _, wl := range workload {
		for i := 0; i < wl.hits; i++ {
			code, _ := getStatus(t, srv, wl.path)
			if code != wl.code {
				t.Fatalf("GET %s = %d, want %d", wl.path, code, wl.code)
			}
			total++
		}
	}

	if code, body := getStatus(t, srv, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := getStatus(t, srv, "/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}

	code, body := getStatus(t, srv, "/debug/ops")
	if code != 200 {
		t.Fatalf("/debug/ops = %d %q", code, body)
	}
	var snap server.OpsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("decoding ops snapshot: %v", err)
	}
	if snap.Mode != "dynamic" {
		t.Errorf("mode = %q", snap.Mode)
	}
	if !snap.Ready || snap.ReadyReason != "" {
		t.Errorf("ready = %v %q", snap.Ready, snap.ReadyReason)
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime = %v", snap.UptimeSeconds)
	}

	// Accounting matches the workload exactly — the ops endpoints live
	// outside the instrumented chain, so observing does not perturb.
	if snap.Accounting == nil {
		t.Fatal("no accounting in snapshot")
	}
	if snap.Accounting.TotalHits != uint64(total) {
		t.Errorf("accounting total = %d, want %d", snap.Accounting.TotalHits, total)
	}
	byPath := map[string]server.PageStats{}
	for _, p := range snap.Accounting.Pages {
		byPath[p.Path] = p
	}
	for _, wl := range workload {
		path := wl.path
		if i := strings.Index(path, "%"); i >= 0 {
			// The server sees the decoded request path.
			path = "/page/PaperPage(p1)"
		}
		got, ok := byPath[path]
		if !ok {
			t.Errorf("no accounting row for %s (have %v)", path, snap.Accounting.Pages)
			continue
		}
		if got.Hits != uint64(wl.hits) {
			t.Errorf("%s hits = %d, want %d", path, got.Hits, wl.hits)
		}
		if got.LastStatus != wl.code {
			t.Errorf("%s last status = %d, want %d", path, got.LastStatus, wl.code)
		}
		if got.StalenessSeconds < 0 {
			t.Errorf("%s staleness = %v", path, got.StalenessSeconds)
		}
	}

	// SLO saw every request; 404s are not availability errors.
	if snap.SLO == nil {
		t.Fatal("no SLO in snapshot")
	}
	if snap.SLO.Total != uint64(total) || snap.SLO.Errors != 0 {
		t.Errorf("slo total/errors = %d/%d, want %d/0", snap.SLO.Total, snap.SLO.Errors, total)
	}
	if snap.Runtime == nil || snap.Runtime.Goroutines == 0 {
		t.Errorf("runtime sample missing: %+v", snap.Runtime)
	}
	if snap.Tracing == nil || snap.Tracing.Requests != uint64(total) {
		t.Errorf("tracing = %+v, want %d requests", snap.Tracing, total)
	}
	if snap.InFlight == nil {
		t.Error("in_flight should be [], not null")
	}

	// The access log carries one line per request with the slog schema.
	if got := strings.Count(accessLog.String(), "msg=access"); got != total {
		t.Errorf("access log lines = %d, want %d", got, total)
	}

	// The metrics registry gained build info, process start time and the
	// bounded accounting gauges — but no per-page labels.
	if code, body := getStatus(t, srv, "/metrics"); code != 200 {
		t.Errorf("/metrics = %d", code)
	} else {
		for _, want := range []string{
			"strudel_build_info{",
			"strudel_process_start_time_seconds",
			"strudel_page_hits_total",
			"strudel_page_accounting_pages",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
		if strings.Contains(body, "PaperPage") {
			t.Error("/metrics leaks per-page label cardinality")
		}
	}
}

// TestServeOpsWithoutMetrics: -ops alone spins up an internal registry
// for the gauges without mounting /metrics or the debug endpoints.
func TestServeOpsWithoutMetrics(t *testing.T) {
	srv := opsServer(t, serveOptions{
		dynamic: true,
		ops:     true,
		logg:    discardLogger(),
	})
	getStatus(t, srv, "/")
	if code, _ := getStatus(t, srv, "/debug/ops"); code != 200 {
		t.Errorf("/debug/ops = %d", code)
	}
	if code, _ := getStatus(t, srv, "/metrics"); code == 200 {
		t.Error("/metrics should not be mounted without -metrics")
	}
	if code, _ := getStatus(t, srv, "/healthz"); code != 200 {
		t.Errorf("/healthz = %d", code)
	}
}

// TestServeReadyAfterDegradedRefresh: losing a source after a good
// build degrades (last-good data keeps serving) — readiness must NOT
// flip, per the resilience layer's serve-stale contract. The failed
// path (no last-good at all) is covered at the HTTP layer in
// internal/server with a real mediator report.
func TestServeReadyAfterDegradedRefresh(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	h, c, err := newServing(m, serveOptions{dynamic: true, ops: true, logg: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if err := os.Remove(filepath.Join(dir, "refs.bib")); err != nil {
		t.Fatal(err)
	}
	if err := c.step("interval"); err != nil {
		t.Fatalf("refresh after source loss: %v", err)
	}
	if code, body := getStatus(t, srv, "/readyz"); code != 200 {
		t.Errorf("/readyz after degraded refresh = %d %q (stale beats nothing)", code, body)
	}
	if code, _ := getStatus(t, srv, "/"); code != 200 {
		t.Errorf("site not serving after degraded refresh: %d", code)
	}
	code, body := getStatus(t, srv, "/debug/ops")
	if code != 200 {
		t.Fatalf("/debug/ops = %d", code)
	}
	var snap server.OpsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Ready {
		t.Errorf("ops snapshot not ready after degraded refresh: %q", snap.ReadyReason)
	}
}

// TestServeNoopRefreshRevalidates: a refresh that finds every source
// fresh and unchanged still re-validates the served data, in both
// modes. It moves the build ID on every plane — the ledger, /debug/ops
// and the edge's build info — and data staleness restarts from the
// refresh's observation. The mediator runs on a fake clock set two
// hours back and advanced one hour before the refresh, so the served
// data is exactly one hour old (plus the test's own run time).
func TestServeNoopRefreshRevalidates(t *testing.T) {
	for _, mode := range []string{"static", "dynamic"} {
		t.Run(mode, func(t *testing.T) {
			dir := writeTestSite(t)
			m, err := loadManifest(filepath.Join(dir, "site.manifest"))
			if err != nil {
				t.Fatal(err)
			}
			clock := resilience.NewFakeClock(time.Now().Add(-2 * time.Hour))
			m.builder.SetResilience(mediator.Resilience{Clock: clock})
			reg := telemetry.NewRegistry()
			h, c, err := newServing(m, serveOptions{
				dynamic: mode == "dynamic", reg: reg, ops: true, hotPages: 4, logg: discardLogger(),
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(h)
			defer srv.Close()
			clock.Advance(time.Hour)
			if err := c.step("interval"); err != nil {
				t.Fatal(err)
			}
			if code, _ := getStatus(t, srv, "/"); code != 200 {
				t.Fatalf("/ = %d", code)
			}
			_, body := getStatus(t, srv, "/debug/ops")
			var snap server.OpsSnapshot
			if err := json.Unmarshal([]byte(body), &snap); err != nil {
				t.Fatal(err)
			}
			var last ledger.Entry
			if err := json.Unmarshal(snap.LastBuild, &last); err != nil {
				t.Fatal(err)
			}
			if last.Mode != "noop" || snap.BuildID != last.BuildID {
				t.Errorf("ops build %q, newest ledger entry %s %q: want the noop refresh's build",
					snap.BuildID, last.Mode, last.BuildID)
			}
			_, metrics := getStatus(t, srv, "/metrics")
			if !strings.Contains(metrics, `strudel_edge_build_info{build_id="`+last.BuildID+`"`) {
				t.Errorf("edge build info lags the noop refresh %q:\n%s", last.BuildID, grepLines(metrics, "build_info"))
			}
			var root *server.PageStats
			for i, p := range snap.Accounting.Pages {
				if p.Path == "/" {
					root = &snap.Accounting.Pages[i]
				}
			}
			if root == nil {
				t.Fatalf("no accounting row for /: %+v", snap.Accounting.Pages)
			}
			if d := root.DataStalenessSeconds - time.Hour.Seconds(); d < 0 || d > 60 {
				t.Errorf("data staleness = %.3fs, want one hour: the noop refresh observed every source fresh",
					root.DataStalenessSeconds)
			}
		})
	}
}

// TestRunTopSingleShot renders one dashboard frame against a live
// serving process and checks the operator-facing text.
func TestRunTopSingleShot(t *testing.T) {
	srv := opsServer(t, serveOptions{
		dynamic:   true,
		ops:       true,
		sloTarget: time.Second,
		logg:      discardLogger(),
	})
	for i := 0; i < 4; i++ {
		getStatus(t, srv, "/")
	}
	var out bytes.Buffer
	if err := runTop(&out, srv.URL, time.Millisecond, 1, 5); err != nil {
		t.Fatalf("runTop: %v", err)
	}
	frame := out.String()
	for _, want := range []string{
		"strudel top", "mode dynamic", "ready",
		"slo", "objective 99.00%",
		"go ", "goroutines",
		"HITS", "PATH", "/",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("dashboard missing %q in:\n%s", want, frame)
		}
	}
	if strings.Contains(frame, "\033[2J") {
		t.Error("single-shot frame should not clear the screen")
	}
	// Multi-frame runs clear between frames.
	out.Reset()
	if err := runTop(&out, srv.URL, time.Millisecond, 2, 5); err != nil {
		t.Fatalf("runTop -n 2: %v", err)
	}
	if got := strings.Count(out.String(), "\033[2J"); got != 2 {
		t.Errorf("clear sequences = %d, want 2", got)
	}
}

// TestFetchOpsErrors: hitting a server without -ops yields a
// diagnosable error, not a JSON panic.
func TestFetchOpsErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer srv.Close()
	client := &http.Client{Timeout: time.Second}
	if _, err := fetchOps(client, srv.URL, 10); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("fetchOps against 404 = %v", err)
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>not json</html>")
	}))
	defer bad.Close()
	if _, err := fetchOps(client, bad.URL, 10); err == nil || !strings.Contains(err.Error(), "-ops") {
		t.Errorf("fetchOps against non-JSON = %v", err)
	}
}
