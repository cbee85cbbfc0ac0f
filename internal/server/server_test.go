package server

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"strudel/internal/datadef"
	"strudel/internal/graph"
	"strudel/internal/incremental"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
	"strudel/internal/template"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestStaticServer(t *testing.T) {
	site := &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "<h1>Home</h1>"},
		"a.html":     {Path: "a.html", HTML: "<h1>A</h1>"},
	}}
	srv := httptest.NewServer(NewEdge(NewSiteSource(site), EdgeConfig{}))
	defer srv.Close()
	if code, body := get(t, srv, "/"); code != 200 || body != "<h1>Home</h1>" {
		t.Errorf("/ = %d %q", code, body)
	}
	if code, body := get(t, srv, "/a.html"); code != 200 || body != "<h1>A</h1>" {
		t.Errorf("/a.html = %d %q", code, body)
	}
	if code, _ := get(t, srv, "/missing.html"); code != 404 {
		t.Errorf("missing = %d", code)
	}
}

func TestStaticServerListingWithoutIndex(t *testing.T) {
	site := &sitegen.Site{Pages: map[string]*sitegen.Page{
		"a.html": {Path: "a.html", HTML: "A"},
	}}
	srv := httptest.NewServer(NewEdge(NewSiteSource(site), EdgeConfig{}))
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, `href="/a.html"`) {
		t.Errorf("listing = %d %q", code, body)
	}
}

func dynamicRenderer(t *testing.T) *incremental.Renderer {
	t.Helper()
	r, _ := dynamicRendererAndGraph(t)
	return r
}

func dynamicRendererAndGraph(t *testing.T) (*incremental.Renderer, *graph.Graph) {
	t.Helper()
	res, err := datadef.Parse("G", `
collection Publications { }
object pub1 in Publications { title "Alpha" year 1997 }
object pub2 in Publications { title "Beta" year 1998 }
`)
	if err != nil {
		t.Fatal(err)
	}
	q := struql.MustParse(`
INPUT G
CREATE RootPage()
COLLECT Roots(RootPage())
WHERE Publications(x), x -> "year" -> y
CREATE YearPage(y)
LINK YearPage(y) -> "Year" -> y,
     RootPage() -> "YearPage" -> YearPage(y)`)
	d := incremental.Decompose(q, res.Graph, nil)
	return &incremental.Renderer{
		Dec: d,
		Templates: map[string]*template.Template{
			"RootPage": template.MustParse("RootPage", `<h1>Years</h1><SFMT_UL YearPage ORDER=ascend KEY=Year>`),
			"YearPage": template.MustParse("YearPage", `<h1>Year <SFMT Year></h1>`),
		},
	}, res.Graph
}

func TestDynamicServerClickThrough(t *testing.T) {
	r := dynamicRenderer(t)
	srv := httptest.NewServer(DynamicEdge(func() *incremental.Renderer { return r }, "Roots", EdgeConfig{}))
	defer srv.Close()
	// Root renders with links to year pages.
	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "<h1>Years</h1>") {
		t.Fatalf("/ = %d %q", code, body)
	}
	if !strings.Contains(body, "/page/YearPage%281997%29") {
		t.Errorf("root missing year link: %q", body)
	}
	// Click through to a year page (computed at click time).
	code, body = get(t, srv, "/page/YearPage%281997%29")
	if code != 200 || !strings.Contains(body, "<h1>Year 1997</h1>") {
		t.Errorf("year page = %d %q", code, body)
	}
	// Unknown (undiscovered) pages are 404.
	if code, _ := get(t, srv, "/page/YearPage%282050%29"); code != 404 {
		t.Errorf("undiscovered page = %d", code)
	}
	if code, _ := get(t, srv, "/nosuch"); code != 404 {
		t.Errorf("bad path = %d", code)
	}
}

func TestDynamicServerCachesPages(t *testing.T) {
	r := dynamicRenderer(t)
	srv := httptest.NewServer(DynamicEdge(func() *incremental.Renderer { return r }, "Roots", EdgeConfig{}))
	defer srv.Close()
	get(t, srv, "/")
	get(t, srv, "/page/YearPage%281997%29")
	first := r.Dec.Stats()
	get(t, srv, "/page/YearPage%281997%29")
	second := r.Dec.Stats()
	if second.CacheHits <= first.CacheHits {
		t.Errorf("stats = %+v -> %+v", first, second)
	}
}

// brokenRenderer builds a renderer whose root is computable but whose
// page queries fail at click time (the planner errors on any seeded
// conjunction), so RenderPage returns an error.
func brokenRenderer(t *testing.T) *incremental.Renderer {
	t.Helper()
	r, g := dynamicRendererAndGraph(t)
	r.Dec.UsePlanner(func(conds []struql.Condition, seed []struql.Binding) ([]struql.Binding, error) {
		if seed == nil {
			// Roots still computes, so "/" reaches the render path.
			return struql.EvalBindings(g, struql.NewRegistry(), conds, nil)
		}
		return nil, errors.New("synthetic render failure: secret-detail")
	})
	return r
}

// TestDynamicServerRenderErrorIs500 checks that a render failure
// produces a generic 500 page — the error detail must not leak into
// the response body — and is counted in the telemetry registry.
func TestDynamicServerRenderErrorIs500(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := brokenRenderer(t)
	srv := httptest.NewServer(DynamicEdge(func() *incremental.Renderer { return r }, "Roots", EdgeConfig{Registry: reg}))
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != 500 {
		t.Fatalf("/ = %d %q", code, body)
	}
	if strings.Contains(body, "unbound") || strings.Contains(body, "BadPage") {
		t.Errorf("error detail leaked into response: %q", body)
	}
	if !strings.Contains(body, "internal error") {
		t.Errorf("missing generic error page: %q", body)
	}
	c := reg.Counter("strudel_http_internal_errors_total",
		"Requests that failed with an internal error, by serving mode.",
		"mode", "dynamic")
	if c.Value() != 1 {
		t.Errorf("internal error counter = %d, want 1", c.Value())
	}
}

// TestInstrumentAndMetricsEndpoint drives an instrumented static
// server and checks the registered series appear on /metrics.
func TestInstrumentAndMetricsEndpoint(t *testing.T) {
	site := &sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "<h1>Home</h1>"},
	}}
	reg := telemetry.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/", Instrument(reg, "static", NewEdge(NewSiteSource(site), EdgeConfig{})))
	AttachDebug(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if code, _ := get(t, srv, "/"); code != 200 {
		t.Fatalf("/ = %d", code)
	}
	if code, _ := get(t, srv, "/missing.html"); code != 404 {
		t.Fatalf("missing = %d", code)
	}
	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`strudel_http_requests_total{class="2xx",mode="static"} 1`,
		`strudel_http_requests_total{class="4xx",mode="static"} 1`,
		`strudel_http_request_seconds_count{mode="static"} 2`,
		`strudel_http_request_seconds_bucket{mode="static",le="+Inf"} 2`,
		`strudel_http_inflight_requests{mode="static"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	if code, body := get(t, srv, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d", code)
	}
	if code, _ := get(t, srv, "/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestQueryHandler(t *testing.T) {
	res, err := datadef.Parse("site", `
collection Pages { }
object home in Pages { title "Home" kind "page" }
object about in Pages { title "About" kind "page" link home }
`)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(QueryHandler(res.Graph, nil, 0))
	defer srv.Close()

	// The empty query serves the form.
	code, body := get(t, srv, "/")
	if code != 200 || !strings.Contains(body, "<form") {
		t.Errorf("form = %d %q", code, body)
	}
	// A collect query renders results.
	q := url.QueryEscape(`WHERE Pages(p), p -> "title" -> v COLLECT Titles(v)`)
	code, body = get(t, srv, "/?q="+q)
	if code != 200 || !strings.Contains(body, "Home") || !strings.Contains(body, "About") {
		t.Errorf("results = %d %q", code, body)
	}
	// A regular-path-expression query over the site.
	q = url.QueryEscape(`WHERE Pages(p), p -> * -> q2, Pages(q2) COLLECT Reachable(q2)`)
	if code, body = get(t, srv, "/?q="+q); code != 200 || !strings.Contains(body, "home") {
		t.Errorf("path query = %d %q", code, body)
	}
	// Mutating queries are rejected.
	q = url.QueryEscape(`WHERE Pages(p) CREATE F(p) LINK F(p) -> "x" -> p`)
	if code, _ = get(t, srv, "/?q="+q); code != 400 {
		t.Errorf("mutating query = %d", code)
	}
	// Parse errors are 400.
	if code, _ = get(t, srv, "/?q="+url.QueryEscape("WHERE (((")); code != 400 {
		t.Errorf("bad query = %d", code)
	}
	// Runaway queries hit the binding cap.
	srvTight := httptest.NewServer(QueryHandler(res.Graph, nil, 2))
	defer srvTight.Close()
	q = url.QueryEscape(`WHERE Pages(p), p -> a -> v COLLECT Out(v)`)
	if code, _ = get(t, srvTight, "/?q="+q); code != 422 {
		t.Errorf("capped query = %d", code)
	}
	// Queries with no collect clauses say so.
	q = url.QueryEscape(`WHERE Pages(p), p -> "title" -> v`)
	if code, body = get(t, srv, "/?q="+q); code != 200 || !strings.Contains(body, "nothing to show") {
		t.Errorf("collectless = %d %q", code, body)
	}
}

// TestRecoverMiddleware: a panicking handler answers 500 and the
// process (and counter) survive.
func TestRecoverMiddleware(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := Recover(reg, "dynamic", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/boom" {
			panic("template bug: nil deref in SFMT")
		}
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	code, body := get(t, srv, "/boom")
	if code != 500 || strings.Contains(body, "SFMT") {
		t.Fatalf("/boom = %d %q", code, body)
	}
	// Other pages still render after the panic.
	if code, body := get(t, srv, "/fine"); code != 200 || body != "ok" {
		t.Errorf("/fine = %d %q", code, body)
	}
	c := reg.Counter("strudel_http_panics_total",
		"Requests that panicked and were recovered, by serving mode.", "mode", "dynamic")
	if c.Value() != 1 {
		t.Errorf("panic counter = %d", c.Value())
	}
}

// TestShedMiddleware: with max in-flight reached, new requests get an
// immediate 503 with Retry-After instead of queueing.
func TestShedMiddleware(t *testing.T) {
	reg := telemetry.NewRegistry()
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	h := Shed(reg, "dynamic", 2, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.Write([]byte("ok"))
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Fill both slots.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/")
			if err != nil {
				results <- -1
				return
			}
			resp.Body.Close()
			results <- resp.StatusCode
		}()
	}
	<-entered
	<-entered
	// The third request is shed, not queued.
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("over-limit request = %d %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != 200 {
			t.Errorf("in-flight request = %d", code)
		}
	}
	c := reg.Counter("strudel_http_shed_total",
		"Requests rejected with 503 because max in-flight was reached, by serving mode.",
		"mode", "dynamic")
	if c.Value() != 1 {
		t.Errorf("shed counter = %d", c.Value())
	}
}

// hangingRenderer returns a renderer whose page computation blocks
// until the returned channel is closed (the planner never returns).
func hangingRenderer(t *testing.T) (*incremental.Renderer, chan struct{}) {
	t.Helper()
	r, g := dynamicRendererAndGraph(t)
	gate := make(chan struct{})
	r.Dec.UsePlanner(func(conds []struql.Condition, seed []struql.Binding) ([]struql.Binding, error) {
		if seed == nil {
			return struql.EvalBindings(g, struql.NewRegistry(), conds, nil)
		}
		<-gate
		return struql.EvalBindings(g, struql.NewRegistry(), conds, seed)
	})
	return r, gate
}

// TestDynamicRenderDeadline: a page whose click-time query hangs
// answers 504 at the render deadline instead of pinning the
// connection, and the server keeps answering subsequent requests.
func TestDynamicRenderDeadline(t *testing.T) {
	reg := telemetry.NewRegistry()
	r, gate := hangingRenderer(t)
	defer close(gate)
	h := DynamicEdge(func() *incremental.Renderer { return r }, "Roots",
		EdgeConfig{Registry: reg, RenderTimeout: 20 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()
	code, body := get(t, srv, "/")
	if code != 504 {
		t.Fatalf("hanging root render = %d %q, want 504", code, body)
	}
	// The deadline freed the connection: the server still answers.
	if code, _ := get(t, srv, "/"); code != 504 {
		t.Fatalf("second request = %d, want 504", code)
	}
	c := reg.Counter("strudel_http_render_timeouts_total",
		"Dynamic renders abandoned at the render deadline, by serving mode.", "mode", "dynamic")
	if c.Value() != 2 {
		t.Errorf("timeout counter = %d", c.Value())
	}
}

// TestServeUntilGracefulShutdown: ServeUntil answers requests until
// stop fires, then shuts down cleanly and returns nil.
func TestServeUntilGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	srv := NewServer(addr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("up"))
	}))
	if srv.ReadHeaderTimeout == 0 || srv.IdleTimeout == 0 {
		t.Fatal("NewServer must set real timeouts")
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- ServeUntil(srv, stop, time.Second) }()
	// Wait for the listener to come up.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/")
		if err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("server still answering after shutdown")
	}
}

// TestStaticFromSwapsAtomically: swapping the site snapshot
// mid-serving switches responses without restart.
func TestStaticFromSwapsAtomically(t *testing.T) {
	edge := NewEdge(NewSiteSource(&sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "v1"},
	}}), EdgeConfig{})
	srv := httptest.NewServer(edge)
	defer srv.Close()
	if _, body := get(t, srv, "/"); body != "v1" {
		t.Fatalf("body = %q", body)
	}
	edge.SetSource(NewSiteSource(&sitegen.Site{Pages: map[string]*sitegen.Page{
		"index.html": {Path: "index.html", HTML: "v2"},
	}}))
	if _, body := get(t, srv, "/"); body != "v2" {
		t.Fatalf("after swap body = %q", body)
	}
}
