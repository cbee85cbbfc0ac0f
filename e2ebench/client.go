package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"time"

	"strudel/internal/incremental"
	"strudel/internal/sitegen"
	"strudel/internal/telemetry"
)

// recorder is a reusable in-process ResponseWriter.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

// response is one answered request. body is the body as sent (gzipped
// when gzipped is set); it aliases the client's buffers and is valid
// until the next request.
type response struct {
	status  int
	etag    string
	body    []byte
	gzipped bool
	dur     time.Duration
	// alloc and cold are set when the client measures per request:
	// bytes the server allocated, and whether the edge answered cold.
	alloc uint64
	cold  bool
}

// expected is the current snapshot's answer for a path.
type expected struct {
	body string
	etag string
}

// client is the benchmark's one closed-loop HTTP client and its
// correctness gate. It calls the serve chain in process, keeps an
// ETag cache like a browser, and checks every answer against the
// current snapshot: a 200 must carry the snapshot's bytes and tag, a
// 304 the snapshot's tag, and no strong tag may ever name two bodies.
type client struct {
	s       *stack
	rec     recorder
	gz      *gzip.Reader
	plain   bytes.Buffer
	rng     *rand.Rand
	zipf    *rand.Zipf
	pages   []string
	tags    map[string]string
	audit   map[string][sha256.Size]byte
	measure bool // per-request alloc and cold tracking (traced runs)

	// dynamic-mode oracle: an independent renderer over the live
	// renderer's data graph, memoized per snapshot.
	oracleFor *incremental.Renderer
	oracle    *incremental.Renderer
	memo      map[string]expected

	attempted, failed int
	failures          []string
}

func newClient(s *stack) *client {
	return &client{s: s, rec: recorder{h: http.Header{}}, tags: map[string]string{},
		audit: map[string][sha256.Size]byte{}}
}

// fail records a gate failure; the first few are kept for the report.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// do sends one GET through the full serve chain and times the call.
// The body stays as sent: decoding it is the client's work, done when
// the answer is checked.
func (c *client) do(path, inm string) response {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	clear(c.rec.h)
	c.rec.status = 0
	c.rec.body.Reset()
	var resp response
	var cold0, a0 uint64
	if c.measure {
		cold0 = c.s.edge.Stats().Cold
		a0 = telemetry.AllocBytes()
	}
	t0 := time.Now()
	c.s.h.ServeHTTP(&c.rec, req)
	resp.dur = time.Since(t0)
	if c.measure {
		resp.alloc = telemetry.AllocBytes() - a0
		resp.cold = c.s.edge.Stats().Cold != cold0
	}
	resp.status = c.rec.status
	if resp.status == 0 {
		resp.status = http.StatusOK
	}
	resp.etag = c.rec.h.Get("ETag")
	resp.body = c.rec.body.Bytes()
	resp.gzipped = c.rec.h.Get("Content-Encoding") == "gzip"
	return resp
}

// plainBody is resp's body decoded; it is valid until the next call.
func (c *client) plainBody(resp response) []byte {
	if !resp.gzipped {
		return resp.body
	}
	var err error
	if c.gz == nil {
		c.gz, err = gzip.NewReader(bytes.NewReader(resp.body))
	} else {
		err = c.gz.Reset(bytes.NewReader(resp.body))
	}
	c.plain.Reset()
	if err == nil {
		_, err = io.Copy(&c.plain, c.gz)
	}
	if err != nil {
		c.fail("gzip body: %v", err)
	}
	return c.plain.Bytes()
}

// check applies the gate to one answer and updates the ETag cache.
func (c *client) check(path string, resp response) {
	c.attempted++
	exp, ok := c.expect(path)
	switch {
	case !ok:
		c.fail("GET %s: no such page in the current snapshot (answered %d)", path, resp.status)
	case resp.status == http.StatusOK:
		body := c.plainBody(resp)
		if string(body) != exp.body {
			c.fail("GET %s: 200 body differs from the current snapshot", path)
		} else if resp.etag != exp.etag {
			c.fail("GET %s: 200 tag %s, snapshot tag %s", path, resp.etag, exp.etag)
		} else {
			c.auditTag(resp.etag, body)
			c.tags[path] = resp.etag
		}
	case resp.status == http.StatusNotModified:
		if resp.etag != exp.etag {
			c.fail("GET %s: 304 tag %s, snapshot tag %s", path, resp.etag, exp.etag)
		}
	default:
		c.fail("GET %s: status %d", path, resp.status)
	}
}

// auditTag enforces the strong-ETag invariant across the whole run:
// one tag, one body.
func (c *client) auditTag(etag string, body []byte) {
	sum := sha256.Sum256(body)
	if prev, ok := c.audit[etag]; ok && prev != sum {
		c.fail("strong tag %s served with two different bodies", etag)
		return
	}
	c.audit[etag] = sum
}

// expect returns the current snapshot's answer for path.
func (c *client) expect(path string) (expected, bool) {
	if c.s.w.dynamic {
		return c.expectDynamic(path)
	}
	name := strings.TrimPrefix(path, "/")
	if name == "" {
		name = "index.html"
	}
	pg, ok := c.s.cur.Load().Site.Pages[name]
	if !ok {
		return expected{}, false
	}
	return expected{body: pg.HTML, etag: pg.ETag}, true
}

// expectDynamic renders path with an independent renderer (its own
// decomposition and page cache) over the live renderer's data graph,
// so the oracle never touches the served renderer's cache.
func (c *client) expectDynamic(path string) (expected, bool) {
	live := c.s.dyn.Load()
	if live != c.oracleFor {
		c.oracleFor = live
		c.oracle = &incremental.Renderer{
			Dec:       incremental.Decompose(c.s.query, live.Dec.Input(), c.s.b.Registry()),
			Templates: c.s.w.spec.Templates,
			EmbedOnly: c.s.w.spec.EmbedOnly,
			URLFor:    live.URLFor,
			MaxDepth:  live.MaxDepth,
		}
		c.memo = map[string]expected{}
	}
	if e, ok := c.memo[path]; ok {
		return e, true
	}
	var body string
	var err error
	if path == "/" {
		roots, rerr := c.oracle.Dec.Roots(c.s.w.spec.RootCollection)
		if rerr != nil || len(roots) != 1 {
			return expected{}, false
		}
		body, err = c.oracle.RenderPage(roots[0])
	} else {
		key, uerr := url.PathUnescape(strings.TrimPrefix(path, "/page/"))
		if uerr != nil {
			return expected{}, false
		}
		ref, ok := live.Dec.Resolve(key)
		if !ok {
			return expected{}, false
		}
		body, err = c.oracle.RenderPage(ref)
	}
	if err != nil {
		return expected{}, false
	}
	e := expected{body: body, etag: sitegen.BytesETag(body)}
	c.memo[path] = e
	return e, true
}

// pagePath is the URL of a record's page: the materialized file a
// static site writes for the page object, or the click-time URL.
func (c *client) pagePath(key string) string {
	name := c.s.w.recordPage + "(" + key + ")"
	if c.s.w.dynamic {
		return "/page/" + url.PathEscape(name)
	}
	return "/" + c.s.w.recordPage + "_" + key + ".html"
}

// initPages fixes the client's page universe and its Zipf ranking.
// The ranking follows the site's levels: "/" first, then the
// navigation pages, then the record pages, each level in a seeded
// order. A fully random ranking let the seed decide how popular "/"
// is, and in dynamic mode "/" renders every page, so serve figures
// spread with the seed (see design.json).
func (c *client) initPages(seed int64) {
	c.rng = rand.New(rand.NewSource(seed))
	var nav, recs []string
	if c.s.w.dynamic {
		for _, y := range c.s.c.years() {
			nav = append(nav, "/page/"+url.PathEscape(fmt.Sprintf("GroupPage(%d)", y)))
		}
		for _, r := range c.s.c.recs {
			recs = append(recs, c.pagePath(r.key))
		}
	} else {
		for path, pg := range c.s.cur.Load().Site.Pages {
			switch {
			case path == "index.html":
			case strings.HasPrefix(pg.Name, c.s.w.recordPage+"("):
				recs = append(recs, "/"+path)
			default:
				nav = append(nav, "/"+path)
			}
		}
	}
	c.pages = []string{"/"}
	for _, level := range [][]string{nav, recs} {
		sort.Strings(level)
		c.rng.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
		c.pages = append(c.pages, level...)
	}
	c.rezipf()
}

func (c *client) rezipf() {
	c.zipf = rand.NewZipf(c.rng, zipfS, 1, uint64(len(c.pages)-1))
}

// applyEdit updates the page universe after an edit added or removed
// records: new pages join at the tail of the ranking, removed pages
// leave it.
func (c *client) applyEdit(e *edit) {
	if len(e.added) == 0 && len(e.removed) == 0 {
		return
	}
	gone := map[string]bool{}
	for _, r := range e.removed {
		gone[c.pagePath(r.key)] = true
		delete(c.tags, c.pagePath(r.key))
	}
	kept := c.pages[:0]
	for _, p := range c.pages {
		if !gone[p] {
			kept = append(kept, p)
		}
	}
	c.pages = kept
	for _, r := range e.added {
		c.pages = append(c.pages, c.pagePath(r.key))
	}
	c.rezipf()
}

// next picks the next request: a page by Zipf rank, revalidated from
// the ETag cache revalidatePct percent of the time.
func (c *client) next() (string, string) {
	path := c.pages[c.zipf.Uint64()]
	if tag, ok := c.tags[path]; ok && c.rng.Intn(100) < revalidatePct {
		return path, tag
	}
	return path, ""
}
