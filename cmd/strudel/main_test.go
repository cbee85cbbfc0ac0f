package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strudel/internal/core"
	"strudel/internal/sitegen"
	"strudel/internal/telemetry"
)

// discardLogger returns a structured logger whose output is dropped,
// for exercising the serving path quietly.
func discardLogger() *slog.Logger {
	return telemetry.NewLogger(io.Discard)
}

// writeTestSite creates a manifest plus its artifacts in a temp dir.
func writeTestSite(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"refs.bib": `
@article{p1, title = {Alpha}, author = {Ann}, year = 1997, category = {X}}
@inproceedings{p2, title = {Beta}, author = {Bo}, year = 1998, booktitle = {C}, category = {Y}}
`,
		"site.struql": `
INPUT DataGraph
CREATE RootPage()
COLLECT Roots(RootPage())
WHERE Publications(x), x -> l -> v
CREATE PaperPage(x)
LINK PaperPage(x) -> l -> v,
     RootPage() -> "Paper" -> PaperPage(x)
OUTPUT Site`,
		"root.tpl":  `<html><body><h1>Papers</h1><SFMT_UL Paper ORDER=ascend KEY=title></body></html>`,
		"paper.tpl": `<html><body><h1><SFMT title></h1><SFMT author DELIM=", "> (<SFMT year>)</body></html>`,
		"site.manifest": `# test site
site      testsite
source    refs.bib  bibtex  refs.bib
query     site.struql
template  RootPage  root.tpl
template  PaperPage paper.tpl
optimize
index     RootPage
roots     Roots
constraint reachable RootPage
`,
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestLoadManifestAndBuild(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	if m.name != "testsite" || m.rootColl != "Roots" || m.constraints != 1 {
		t.Errorf("manifest = %+v", m)
	}
	res, err := m.builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pages != 3 {
		t.Errorf("pages = %d, want 3 (%v)", res.Stats.Pages, res.Site.Paths())
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations: %v", res.Violations)
	}
	idx := res.Site.Pages["index.html"]
	if !strings.Contains(idx.HTML, "Alpha") || !strings.Contains(idx.HTML, "Beta") {
		t.Errorf("index:\n%s", idx.HTML)
	}
}

func TestCmdBuildWritesSite(t *testing.T) {
	dir := writeTestSite(t)
	out := filepath.Join(dir, "out")
	if err := cmdBuild([]string{"-manifest", filepath.Join(dir, "site.manifest"), "-out", out}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("wrote %d files", len(entries))
	}
}

func TestCmdStats(t *testing.T) {
	dir := writeTestSite(t)
	if err := cmdStats([]string{"-manifest", filepath.Join(dir, "site.manifest")}); err != nil {
		t.Fatal(err)
	}
}

func TestManifestErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct{ name, content string }{
		{"unknown directive", "frobnicate x\n"},
		{"bad source arity", "source only-two\n"},
		{"missing file", "query nosuch.struql\n"},
		{"bad constraint", "constraint frob x\n"},
		{"bad wrapper kind", "source s nosuchkind s.txt\n"},
		{"bad template file", "template T nosuch.tpl\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_")+".manifest")
			extra := ""
			if c.name == "bad wrapper kind" {
				os.WriteFile(filepath.Join(dir, "s.txt"), []byte("x"), 0o644)
			}
			os.WriteFile(path, []byte(c.content+extra), 0o644)
			if _, err := loadManifest(path); err == nil {
				t.Error("expected error")
			}
		})
	}
	if _, err := loadManifest(filepath.Join(dir, "does-not-exist")); err == nil {
		t.Error("missing manifest should fail")
	}
}

func TestParseConstraintForms(t *testing.T) {
	good := []string{
		"reachable Root",
		"forbid patent",
		"forbid PersonPage patent",
		"mustlink A l B",
		"nopath A B",
	}
	for _, s := range good {
		if _, err := parseConstraint(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
	bad := []string{"", "reachable", "mustlink A l", "nopath A", "forbid", "wat x"}
	for _, s := range bad {
		if _, err := parseConstraint(s); err == nil {
			t.Errorf("%q should fail", s)
		}
	}
}

func TestServeHandlerStaticAndDynamic(t *testing.T) {
	dir := writeTestSite(t)
	for _, dynamic := range []bool{false, true} {
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		h, c, err := newServing(m, serveOptions{dynamic: dynamic, logg: discardLogger()})
		if err != nil {
			t.Fatalf("dynamic=%v: %v", dynamic, err)
		}
		if c == nil {
			t.Fatalf("dynamic=%v: nil refresh cycle", dynamic)
		}
		srv := httptest.NewServer(h)
		resp, err := http.Get(srv.URL + "/")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "Papers") {
			t.Errorf("dynamic=%v: %d %q", dynamic, resp.StatusCode, body)
		}
	}
}

// TestServeHandlerQueryEndpointBothModes: /query is mounted in static
// AND dynamic mode — the ad-hoc query page the paper motivates is not
// an artifact of one serving strategy.
func TestServeHandlerQueryEndpointBothModes(t *testing.T) {
	dir := writeTestSite(t)
	for _, dynamic := range []bool{false, true} {
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := newServing(m, serveOptions{dynamic: dynamic, logg: discardLogger()})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		resp, err := http.Get(srv.URL + "/query")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), "<form") {
			t.Errorf("dynamic=%v: /query = %d %q", dynamic, resp.StatusCode, body)
		}
	}
}

// TestServeHandlerRefreshSwaps: an interval step of the cycle
// newServing returns rebuilds from the (changed) sources and swaps the
// new site in while the server keeps running.
func TestServeHandlerRefreshSwaps(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	h, c, err := newServing(m, serveOptions{dynamic: true, logg: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	fetchBody := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	// Discover the paper page from the root, then click through.
	if body := fetchBody("/"); !strings.Contains(body, "PaperPage%28p1%29") {
		t.Fatalf("root body = %q", body)
	}
	if body := fetchBody("/page/PaperPage%28p1%29"); !strings.Contains(body, "Alpha") {
		t.Fatalf("paper page = %q", body)
	}
	if err := c.step("interval"); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	// The refreshed renderer serves the same site; page keys resolve
	// again after rediscovery from the root.
	if body := fetchBody("/"); !strings.Contains(body, "PaperPage%28p1%29") {
		t.Errorf("post-refresh root = %q", body)
	}
	if body := fetchBody("/page/PaperPage%28p1%29"); !strings.Contains(body, "Alpha") {
		t.Errorf("post-refresh paper page = %q", body)
	}
}

// TestServeHandlerMetricsEndpoint covers the acceptance surface of the
// observability layer: a metrics-enabled dynamic server exposes
// request-latency histograms, dynamic-cache counters and optimizer
// plan-choice counters on /metrics after a few clicks.
func TestServeHandlerMetricsEndpoint(t *testing.T) {
	dir := writeTestSite(t)
	m, err := loadManifest(filepath.Join(dir, "site.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	h, _, err := newServing(m, serveOptions{dynamic: true, reg: reg, logg: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	// Click twice so the page cache records a hit.
	fetch("/")
	fetch("/")
	code, body := fetch("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`strudel_http_requests_total{class="2xx",mode="dynamic"}`,
		`strudel_http_request_seconds_bucket{mode="dynamic",le="+Inf"}`,
		`strudel_dynamic_cache_events_total{event="hit"}`,
		`strudel_dynamic_cache_events_total{event="miss"}`,
		`strudel_dynamic_render_seconds_count`,
		`strudel_optimizer_plan_choice_total{method=`,
		`strudel_repository_index_builds_total`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if code, body := fetch("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d", code)
	}
	if code, _ := fetch("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
}

// captureStdout redirects os.Stdout into a temp file around fn and
// returns what fn printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	ferr := fn()
	os.Stdout = old
	if ferr != nil {
		t.Fatal(ferr)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCmdExplainTextAndJSON(t *testing.T) {
	dir := writeTestSite(t)
	manifest := filepath.Join(dir, "site.manifest")

	out := captureStdout(t, func() error {
		return cmdExplain([]string{"-manifest", manifest})
	})
	for _, want := range []string{"site testsite", "planner:", "query[0]", "block #0"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain text missing %q:\n%s", want, out)
		}
	}

	raw := captureStdout(t, func() error {
		return cmdExplain([]string{"-manifest", manifest, "-json"})
	})
	var ex core.Explain
	if err := json.Unmarshal([]byte(raw), &ex); err != nil {
		t.Fatalf("explain -json is not valid JSON: %v\n%s", err, raw)
	}
	if ex.Site != "testsite" || len(ex.Queries) != 1 {
		t.Fatalf("explain = %+v", ex)
	}
	if got := ex.Queries[0].Plan.TotalRows(); got != ex.Queries[0].Bindings {
		t.Errorf("plan rows = %d, bindings = %d", got, ex.Queries[0].Bindings)
	}
}

func TestCmdExplainExample(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdExplain([]string{"-example", "homepage"})
	})
	if !strings.Contains(out, "site homepage") || !strings.Contains(out, "query[0]") {
		t.Errorf("explain -example homepage:\n%s", out)
	}
}

func TestCmdWhy(t *testing.T) {
	dir := writeTestSite(t)
	manifest := filepath.Join(dir, "site.manifest")

	out := captureStdout(t, func() error {
		return cmdWhy([]string{"-manifest", manifest, "index.html"})
	})
	for _, want := range []string{"page index.html", "skolem", "sources"} {
		if !strings.Contains(out, want) {
			t.Errorf("why output missing %q:\n%s", want, out)
		}
	}

	raw := captureStdout(t, func() error {
		return cmdWhy([]string{"-manifest", manifest, "-json", "index.html"})
	})
	var pp sitegen.PageProvenance
	if err := json.Unmarshal([]byte(raw), &pp); err != nil {
		t.Fatalf("why -json is not valid JSON: %v\n%s", err, raw)
	}
	if pp.Func != "RootPage" || pp.TupleCount == 0 || len(pp.Sources) == 0 {
		t.Errorf("why -json = %+v", pp)
	}

	if err := cmdWhy([]string{"-manifest", manifest, "no-such-page.html"}); err == nil {
		t.Error("why of an unknown page should fail")
	}
	if err := cmdWhy([]string{"-manifest", manifest}); err == nil {
		t.Error("why without a page argument should fail")
	}
}

// TestCmdBuildTraceOut: -trace-out writes a Chrome trace-event file
// that a JSON parser and the trace viewers accept.
func TestCmdBuildTraceOut(t *testing.T) {
	dir := writeTestSite(t)
	tracePath := filepath.Join(dir, "build-trace.json")
	err := cmdBuild([]string{
		"-manifest", filepath.Join(dir, "site.manifest"),
		"-out", filepath.Join(dir, "out"),
		"-trace-out", tracePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	phases := map[string]bool{}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		phases[ev.Phase] = true
		names[ev.Name] = true
	}
	if !phases["X"] || !phases["M"] {
		t.Errorf("trace phases = %v, want X and M events", phases)
	}
	for _, span := range []string{"query", "generate"} {
		if !names[span] {
			t.Errorf("trace has no %q span: %v", span, names)
		}
	}
}

// TestServeHandlerIntrospectionEndpoints: with metrics enabled, both
// serving modes answer /debug/explain, and the static mode — which
// holds a full build result — answers /debug/provenance too.
func TestServeHandlerIntrospectionEndpoints(t *testing.T) {
	dir := writeTestSite(t)
	for _, dynamic := range []bool{false, true} {
		m, err := loadManifest(filepath.Join(dir, "site.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		h, _, err := newServing(m, serveOptions{dynamic: dynamic, reg: reg, logg: discardLogger()})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		fetch := func(path string) (int, string) {
			t.Helper()
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			return resp.StatusCode, string(body)
		}

		code, body := fetch("/debug/explain")
		if code != 200 {
			t.Fatalf("dynamic=%v: /debug/explain = %d %q", dynamic, code, body)
		}
		var ex core.Explain
		if err := json.Unmarshal([]byte(body), &ex); err != nil {
			t.Fatalf("dynamic=%v: /debug/explain not JSON: %v", dynamic, err)
		}
		if ex.Site != "testsite" || len(ex.Queries) != 1 || ex.Queries[0].Bindings == 0 {
			t.Errorf("dynamic=%v: explain = %+v", dynamic, ex)
		}

		code, body = fetch("/debug/provenance?page=index.html")
		if dynamic {
			// The dynamic renderer has no generated pages to trace.
			if code != 404 {
				t.Errorf("dynamic: /debug/provenance = %d, want 404", code)
			}
		} else {
			if code != 200 {
				t.Fatalf("static: /debug/provenance = %d %q", code, body)
			}
			var pp sitegen.PageProvenance
			if err := json.Unmarshal([]byte(body), &pp); err != nil {
				t.Fatalf("static: provenance not JSON: %v", err)
			}
			if pp.Func != "RootPage" || len(pp.Sources) == 0 {
				t.Errorf("static: provenance = %+v", pp)
			}
			if code, _ := fetch("/debug/provenance?page=no-such"); code != 404 {
				t.Errorf("static: unknown page = %d, want 404", code)
			}
			if code, _ := fetch("/debug/provenance"); code != 400 {
				t.Errorf("static: missing ?page = %d, want 400", code)
			}
		}
		srv.Close()
	}
}

func TestCmdBuildWorkersFlagDeterministic(t *testing.T) {
	dir := writeTestSite(t)
	manifest := filepath.Join(dir, "site.manifest")
	read := func(out string) map[string]string {
		t.Helper()
		entries, err := os.ReadDir(out)
		if err != nil {
			t.Fatal(err)
		}
		pages := map[string]string{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(out, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			pages[e.Name()] = string(data)
		}
		return pages
	}
	seqOut := filepath.Join(dir, "out-seq")
	if err := cmdBuild([]string{"-manifest", manifest, "-out", seqOut, "-workers", "1"}); err != nil {
		t.Fatal(err)
	}
	want := read(seqOut)
	for _, w := range []string{"4", "16"} {
		out := filepath.Join(dir, "out-"+w)
		if err := cmdBuild([]string{"-manifest", manifest, "-out", out, "-workers", w}); err != nil {
			t.Fatalf("workers=%s: %v", w, err)
		}
		got := read(out)
		if len(got) != len(want) {
			t.Fatalf("workers=%s: wrote %d files, want %d", w, len(got), len(want))
		}
		for name, content := range want {
			if got[name] != content {
				t.Errorf("workers=%s: %s differs from sequential build", w, name)
			}
		}
	}
}
