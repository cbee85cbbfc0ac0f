package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"strudel/internal/datadef"
	"strudel/internal/incremental"
	"strudel/internal/sitegen"
	"strudel/internal/struql"
	"strudel/internal/template"
)

// buildStaticSite evaluates a small site end to end (data definition →
// StruQL → sitegen) so pages carry real build-time ETags. The
// site has no index.html, so "/" serves the generated listing.
func buildStaticSite(t *testing.T) *sitegen.Site {
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
WHERE Publications(x), x -> "year" -> y
CREATE YearPage(y)
LINK YearPage(y) -> "Year" -> y,
     RootPage() -> "YearPage" -> YearPage(y)`)
	out, err := struql.Eval(q, res.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := sitegen.New(out.Output, sitegen.Config{
		Templates: map[string]*template.Template{
			"RootPage": template.MustParse("RootPage", `<h1>Years</h1><SFMT_UL YearPage ORDER=ascend KEY=Year>`),
			"YearPage": template.MustParse("YearPage", `<h1>Year <SFMT Year></h1>`),
		},
	})
	site, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return site
}

// conformanceMode describes one serving mode for the table test.
type conformanceMode struct {
	name     string
	handler  http.Handler
	pagePath string // a real page
	pageBody string // its expected body bytes
	missing  string // a path that must 404
	rootLink string // substring the "/" listing must contain
	vary     bool   // Vary: Accept-Encoding expected (compression on)
}

// do performs one in-process request and returns the recorder.
func do(h http.Handler, method, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHTTPConformance is the GET/HEAD × {200, 304 variants, 404, root
// listing} table over both serving modes, asserting status, headers
// and body bytes.
func TestHTTPConformance(t *testing.T) {
	site := buildStaticSite(t)
	staticEdge := NewEdge(NewSiteSource(site), EdgeConfig{Mode: "static", Compress: true})

	renderer := dynamicRenderer(t)
	// Pages are discovered at render time; render the root so the year
	// pages resolve (the same discovery a browsing client performs).
	roots, err := renderer.Dec.Roots("Roots")
	if err != nil || len(roots) == 0 {
		t.Fatalf("Roots: %v (%d roots)", err, len(roots))
	}
	if _, err := renderer.RenderPage(roots[0]); err != nil {
		t.Fatal(err)
	}
	ref, ok := renderer.Dec.Resolve("YearPage(1997)")
	if !ok {
		t.Fatal("YearPage(1997) does not resolve")
	}
	yearBody, err := renderer.RenderPage(ref)
	if err != nil {
		t.Fatal(err)
	}

	modes := []conformanceMode{
		{
			name:     "static",
			handler:  staticEdge,
			pagePath: "/YearPage_1997.html",
			pageBody: site.Pages["YearPage_1997.html"].HTML,
			missing:  "/nope.html",
			rootLink: `href="/YearPage_1997.html"`,
			vary:     true,
		},
		{
			name:     "dynamic",
			handler:  DynamicEdge(func() *incremental.Renderer { return renderer }, "Roots", EdgeConfig{}),
			pagePath: "/page/YearPage%281997%29",
			pageBody: yearBody,
			missing:  "/page/YearPage%282050%29",
			rootLink: `<h1>Years</h1>`, // single root renders, not a listing
			vary:     false,
		},
	}

	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			// First GET captures the mode's real ETag for the 304 rows.
			first := do(m.handler, http.MethodGet, m.pagePath, nil)
			if first.Code != 200 {
				t.Fatalf("GET %s = %d", m.pagePath, first.Code)
			}
			etag := first.Header().Get("ETag")
			if etag == "" || !strings.HasPrefix(etag, `"`) {
				t.Fatalf("GET %s: missing or weak ETag %q", m.pagePath, etag)
			}

			type row struct {
				name       string
				path       string
				inm        string // If-None-Match header, "" = none
				wantStatus int
				wantBody   string // expected GET body ("" = don't check)
				wantETag   bool
			}
			rows := []row{
				{"200", m.pagePath, "", 200, m.pageBody, true},
				{"304 single tag", m.pagePath, etag, 304, "", true},
				{"304 tag list", m.pagePath, `"bogus", ` + etag, 304, "", true},
				{"304 star", m.pagePath, "*", 304, "", true},
				{"304 weak prefix", m.pagePath, "W/" + etag, 304, "", true},
				{"200 on stale tag", m.pagePath, `"0000"`, 200, m.pageBody, true},
				{"404", m.missing, "", 404, "", false},
				{"root", "/", "", 200, "", false},
			}
			for _, r := range rows {
				for _, method := range []string{http.MethodGet, http.MethodHead} {
					name := method + " " + r.name
					hdr := map[string]string{}
					if r.inm != "" {
						hdr["If-None-Match"] = r.inm
					}
					rec := do(m.handler, method, r.path, hdr)
					if rec.Code != r.wantStatus {
						t.Errorf("%s: status = %d, want %d", name, rec.Code, r.wantStatus)
						continue
					}
					body := rec.Body.String()
					if method == http.MethodHead && body != "" {
						t.Errorf("%s: HEAD wrote %d body bytes", name, len(body))
					}
					if r.wantStatus == 304 {
						if got := rec.Header().Get("ETag"); got != etag {
							t.Errorf("%s: 304 ETag = %q, want %q", name, got, etag)
						}
						if body != "" {
							t.Errorf("%s: 304 carried a body", name)
						}
						continue
					}
					if r.wantETag {
						if got := rec.Header().Get("ETag"); got != etag {
							t.Errorf("%s: ETag = %q, want %q", name, got, etag)
						}
					}
					if r.wantStatus == 200 {
						cl := rec.Header().Get("Content-Length")
						if cl == "" {
							t.Errorf("%s: missing Content-Length", name)
						} else if n, _ := strconv.Atoi(cl); method == http.MethodGet && n != len(body) {
							t.Errorf("%s: Content-Length = %s, body = %d bytes", name, cl, len(body))
						}
						if ct := rec.Header().Get("Content-Type"); r.path != m.missing && !strings.Contains(ct, "text/html") {
							t.Errorf("%s: Content-Type = %q", name, ct)
						}
						if m.vary {
							if v := rec.Header().Get("Vary"); v != "Accept-Encoding" {
								t.Errorf("%s: Vary = %q", name, v)
							}
						}
						if rec.Header().Get("Content-Encoding") != "" {
							t.Errorf("%s: unexpected Content-Encoding without Accept-Encoding", name)
						}
					}
					if method == http.MethodGet && r.wantBody != "" && body != r.wantBody {
						t.Errorf("%s: body = %q, want %q", name, body, r.wantBody)
					}
					if method == http.MethodGet && r.path == "/" && r.wantStatus == 200 &&
						!strings.Contains(body, m.rootLink) {
						t.Errorf("%s: root body %q missing %q", name, body, m.rootLink)
					}
				}
			}
		})
	}
}

// TestEdgeGzipPrecompression: a materialized page serves the
// precompressed gzip variant to accepting clients; cold pages and
// refusing clients (q=0) get identity bytes.
func TestEdgeGzipPrecompression(t *testing.T) {
	site := buildStaticSite(t)
	acct := NewAccounting(16)
	edge := NewEdge(NewSiteSource(site), EdgeConfig{
		Mode: "static", Compress: true, HotPages: 1, Accounting: acct,
	})
	// Make YearPage_1997 the hot page and materialize it.
	now := time.Now()
	for i := 0; i < 5; i++ {
		acct.Record("/YearPage_1997.html", 200, 10, time.Millisecond, now)
	}
	edge.Rerank()
	if got := edge.HotKeys(); len(got) != 1 || got[0] != "YearPage_1997.html" {
		t.Fatalf("hot keys = %v", got)
	}

	want := site.Pages["YearPage_1997.html"].HTML
	rec := do(edge, http.MethodGet, "/YearPage_1997.html",
		map[string]string{"Accept-Encoding": "gzip"})
	if rec.Code != 200 {
		t.Fatalf("hot gzip GET = %d", rec.Code)
	}
	switch rec.Header().Get("Content-Encoding") {
	case "gzip":
		zr, err := gzip.NewReader(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != want {
			t.Errorf("gzip body decodes to %q, want %q", plain, want)
		}
		if cl, _ := strconv.Atoi(rec.Header().Get("Content-Length")); cl != rec.Body.Len() {
			t.Errorf("Content-Length %d != wire bytes %d", cl, rec.Body.Len())
		}
	case "":
		// Tiny pages may not compress; identity must still be correct.
		if rec.Body.String() != want {
			t.Errorf("identity body = %q, want %q", rec.Body.String(), want)
		}
	default:
		t.Errorf("Content-Encoding = %q", rec.Header().Get("Content-Encoding"))
	}

	// q=0 refuses gzip even on the hot page.
	rec = do(edge, http.MethodGet, "/YearPage_1997.html",
		map[string]string{"Accept-Encoding": "gzip;q=0"})
	if rec.Header().Get("Content-Encoding") != "" || rec.Body.String() != want {
		t.Errorf("q=0 got encoding %q body %q", rec.Header().Get("Content-Encoding"), rec.Body.String())
	}

	// Cold pages serve identity regardless of Accept-Encoding.
	rec = do(edge, http.MethodGet, "/YearPage_1998.html",
		map[string]string{"Accept-Encoding": "gzip"})
	if rec.Code != 200 || rec.Header().Get("Content-Encoding") != "" {
		t.Errorf("cold page = %d encoding %q", rec.Code, rec.Header().Get("Content-Encoding"))
	}
}

// TestAcceptsGzip: Accept-Encoding negotiation compares the coding
// case-insensitively and honors q=0 refusals.
func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"gzip", true},
		{"GZIP", true},
		{"Gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"br, gzip", true},
		{"identity", false},
		{"", false},
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if tc.header != "" {
			r.Header.Set("Accept-Encoding", tc.header)
		}
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", tc.header, got, tc.want)
		}
	}
}
