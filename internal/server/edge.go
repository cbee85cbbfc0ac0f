// The serving edge: HTTP caching over the paper's static/dynamic
// spectrum (Sec. 6). Every page carries a strong ETag that is the hash
// of its bytes (sitegen.BytesETag), so the edge can answer
// If-None-Match with 304 Not Modified without touching page bytes —
// and because a rebuild changes exactly the ETags of pages whose bytes
// changed, a site swap invalidates client and edge caches *exactly*:
// every page that still has the same bytes keeps serving 304s.
//
// On top of the conditional-request layer sits a hot/cold
// materialization policy, the paper's spectrum made operational: the
// hottest pages (ranked by the per-page accounting table's hit counts,
// Accounting.Hot) are materialized — identity and gzip bytes resident
// in memory — while the long tail stays cold and renders at click
// time through the page source. The ranking re-evaluates as traffic
// shifts, on an injectable clock, with hysteresis (a challenger margin
// plus a minimum residency dwell) so borderline pages do not flap in
// and out of the hot set.
package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strudel/internal/incremental"
	"strudel/internal/resilience"
	"strudel/internal/sitegen"
	"strudel/internal/telemetry"
)

// ErrNotFound is returned by a Source when a resolved key has no page
// behind it (e.g. the site has no roots); the edge answers 404.
var ErrNotFound = errors.New("server: page not found")

// listingKey is the reserved source key for the generated index
// listing served at "/" when no real page claims it.
const listingKey = "\x00listing"

// Source is the edge's view of a page universe. Implementations must
// be safe for concurrent use. Resolve and Meta are hot-path cheap;
// Render may be arbitrarily expensive (a click-time query).
type Source interface {
	// Resolve maps a request path to a page key, or ok=false (404).
	Resolve(path string) (key string, ok bool)
	// Meta returns the page's current strong ETag without producing its
	// body — "" when the tag is unknowable before rendering (dynamic
	// pages). ok=false means the key vanished since Resolve.
	Meta(key string) (etag string, ok bool)
	// Render produces the page's bytes and their strong ETag.
	Render(ctx context.Context, key string) (body string, etag string, err error)
}

// SiteSource serves a materialized site snapshot. It is immutable:
// a refresh builds a new SiteSource over the new site and swaps it in
// with Edge.SetSource.
type SiteSource struct {
	site        *sitegen.Site
	listingOnce sync.Once
	listing     string
	listingTag  string
}

// NewSiteSource wraps one site snapshot.
func NewSiteSource(site *sitegen.Site) *SiteSource {
	return &SiteSource{site: site}
}

// Resolve implements Source: "/" is index.html when present, else the
// generated listing; every other path must name a page exactly.
func (s *SiteSource) Resolve(path string) (string, bool) {
	p := strings.TrimPrefix(path, "/")
	if p == "" {
		p = "index.html"
	}
	if _, ok := s.site.Pages[p]; ok {
		return p, true
	}
	if path == "/" {
		return listingKey, true
	}
	return "", false
}

// Meta implements Source. Materialized pages know their ETag without
// rendering — it was computed at build time from the page's bytes.
func (s *SiteSource) Meta(key string) (string, bool) {
	if key == listingKey {
		s.renderListing()
		return s.listingTag, true
	}
	pg, ok := s.site.Pages[key]
	if !ok {
		return "", false
	}
	return pg.ETag, true
}

// Render implements Source: for a materialized site this is a map
// lookup, not a render.
func (s *SiteSource) Render(_ context.Context, key string) (string, string, error) {
	if key == listingKey {
		s.renderListing()
		return s.listing, s.listingTag, nil
	}
	pg, ok := s.site.Pages[key]
	if !ok {
		return "", "", ErrNotFound
	}
	return pg.HTML, pg.ETag, nil
}

// renderListing materializes the index listing once per snapshot; its
// ETag is the hash of its bytes, like every page's.
func (s *SiteSource) renderListing() {
	s.listingOnce.Do(func() {
		var b strings.Builder
		b.WriteString("<html><body><h1>Site</h1><ul>")
		for _, p := range s.site.Paths() {
			fmt.Fprintf(&b, "<li><a href=%q>%s</a></li>", "/"+p, html.EscapeString(p))
		}
		b.WriteString("</ul></body></html>")
		s.listing = b.String()
		s.listingTag = sitegen.BytesETag(s.listing)
	})
}

// rendererSource serves click-time pages from whatever renderer the
// getter currently returns — the dynamic end of the spectrum. Pages
// have no build-time ETag (Meta answers ""), so conditional requests
// on cold pages pay the render and then compare; hot (edge-cached)
// pages answer 304 from the cached tag without rendering.
type rendererSource struct {
	get            func() *incremental.Renderer
	rootCollection string
	timeout        time.Duration
	clock          resilience.Clock
}

// rootKey is the reserved key for "/" in dynamic mode.
const rootKey = "\x00root"

func (s *rendererSource) Resolve(path string) (string, bool) {
	if path == "/" {
		return rootKey, true
	}
	if rest, ok := strings.CutPrefix(path, "/page/"); ok {
		key, err := url.PathUnescape(rest)
		if err != nil || key == "" {
			return "", false
		}
		if _, ok := s.get().Dec.Resolve(key); !ok {
			return "", false
		}
		return key, true
	}
	return "", false
}

func (s *rendererSource) Meta(key string) (string, bool) { return "", true }

func (s *rendererSource) Render(ctx context.Context, key string) (string, string, error) {
	r := s.get()
	var out string
	err := resilience.WithTimeout(s.clock, s.timeout, func() error {
		if key == rootKey {
			body, err := s.renderRoot(ctx, r)
			if err != nil {
				return err
			}
			out = body
			return nil
		}
		ref, ok := r.Dec.Resolve(key)
		if !ok {
			return ErrNotFound
		}
		body, err := r.RenderPageContext(ctx, ref)
		if err != nil {
			return err
		}
		out = body
		return nil
	})
	if err != nil {
		return "", "", err
	}
	return out, sitegen.BytesETag(out), nil
}

// renderRoot computes "/": the single root page, or a listing when the
// root collection has several.
func (s *rendererSource) renderRoot(ctx context.Context, r *incremental.Renderer) (string, error) {
	roots, err := r.Dec.Roots(s.rootCollection)
	if err != nil {
		return "", err
	}
	if len(roots) == 0 {
		return "", ErrNotFound
	}
	if len(roots) == 1 {
		return r.RenderPageContext(ctx, roots[0])
	}
	keys := make([]string, len(roots))
	for i, root := range roots {
		keys[i] = root.Key()
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("<html><body><h1>Roots</h1><ul>")
	for _, k := range keys {
		fmt.Fprintf(&b, "<li><a href=%q>%s</a></li>", "/page/"+url.PathEscape(k), html.EscapeString(k))
	}
	b.WriteString("</ul></body></html>")
	return b.String(), nil
}

// DynamicEdge builds a serving edge over click-time rendering: cold
// pages run their decomposed query per request (bounded by
// cfg.RenderTimeout), hot pages — when cfg.HotPages and
// cfg.Accounting are wired — hold rendered bytes resident and answer
// conditional requests without rendering. The getter is re-read per
// request, so a refresher can swap in a renderer over fresh data while
// requests are in flight. Call FlushHot after a data refresh.
func DynamicEdge(get func() *incremental.Renderer, rootCollection string, cfg EdgeConfig) *Edge {
	if cfg.Mode == "" {
		cfg.Mode = "dynamic"
	}
	clock := cfg.Clock
	if clock == nil {
		clock = resilience.Real
	}
	src := &rendererSource{
		get:            get,
		rootCollection: rootCollection,
		timeout:        cfg.RenderTimeout,
		clock:          clock,
	}
	return NewEdge(src, cfg)
}

// EdgeConfig tunes the serving edge. The zero value serves correctly
// with no materialization: conditional requests still work, every page
// is cold.
type EdgeConfig struct {
	// Mode tags metrics and error logs ("static", "dynamic").
	Mode string
	// HotPages bounds the materialized set; 0 disables the byte cache.
	HotPages int
	// Compress precompresses gzip variants for materialized pages and
	// adds Vary: Accept-Encoding. Cold pages always serve identity —
	// compression is a benefit of materialization, not a click-time
	// cost.
	Compress bool
	// Accounting is the ranking input for the hot/cold policy: pages
	// are promoted by Accounting.Hot hit counts. nil disables
	// automatic promotion.
	Accounting *Accounting
	// Clock drives residency dwell times and the policy loop; nil means
	// the wall clock. Tests inject a FakeClock.
	Clock resilience.Clock
	// Hysteresis is the challenger margin: a cold page displaces a
	// resident one only when its hit count exceeds the incumbent's by
	// this fraction (default 0.25). Prevents rank-boundary flapping.
	Hysteresis float64
	// MinResidency is how long a freshly promoted page is immune to
	// demotion (default 30s) — the time half of the hysteresis.
	MinResidency time.Duration
	// Registry receives the edge's cache metrics (may be nil).
	Registry *telemetry.Registry
	// RenderTimeout bounds dynamic Render calls made on behalf of a
	// request (applies to renderer-backed sources).
	RenderTimeout time.Duration
}

// hotEntry is one materialized page: its tag, identity bytes and
// (optionally) precompressed gzip bytes, resident in memory.
type hotEntry struct {
	etag string
	body []byte
	gz   []byte
	// promoted is when the page entered the hot set (policy clock);
	// demotion is deferred until MinResidency has passed.
	promoted time.Time
}

// edgeState is the edge's immutable per-swap view: one source snapshot
// plus the current hot map. Requests load it once and never lock.
type edgeState struct {
	src Source
	hot map[string]*hotEntry
}

// EdgeStats is the edge's aggregate cache view, exported via
// Edge.Stats for /debug/ops and the load harness.
type EdgeStats struct {
	Mode     string `json:"mode"`
	HotPages int    `json:"hot_pages"`
	Capacity int    `json:"capacity"`
	// Hits304 counts conditional requests answered 304; HitsHot counts
	// 200s served from resident bytes. Their sum over Requests is the
	// edge hit ratio.
	Hits304  uint64 `json:"hits_304"`
	HitsHot  uint64 `json:"hits_hot"`
	Cold     uint64 `json:"cold"`
	NotFound uint64 `json:"not_found"`
	Errors   uint64 `json:"errors"`
	Requests uint64 `json:"requests"`
	// HitRatio is (Hits304 + HitsHot) / Requests, 0 when idle.
	HitRatio float64 `json:"hit_ratio"`
	// Policy activity.
	Promotions         uint64 `json:"promotions"`
	Demotions          uint64 `json:"demotions"`
	Rematerializations uint64 `json:"rematerializations"`
}

// Edge is the serving edge handler. Create with NewEdge, swap content
// with SetSource, and run the materialization policy with Rerank (or
// RunPolicy for a clock-driven loop).
type Edge struct {
	cfg   EdgeConfig
	clock resilience.Clock
	state atomic.Pointer[edgeState]
	// policyMu serializes the writers (SetSource, Rerank, FlushHot);
	// request handling is lock-free.
	policyMu sync.Mutex

	hits304, hitsHot, cold, notFound, errs atomic.Uint64
	promotions, demotions, remat           atomic.Uint64

	mOutcome  map[string]*telemetry.Counter
	mHotPages *telemetry.Gauge
	timeouts  *telemetry.Counter
}

// NewEdge builds an edge over an initial source (which may be nil
// until the first SetSource).
func NewEdge(src Source, cfg EdgeConfig) *Edge {
	if cfg.Mode == "" {
		cfg.Mode = "edge"
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = 0.25
	}
	if cfg.MinResidency <= 0 {
		cfg.MinResidency = 30 * time.Second
	}
	e := &Edge{cfg: cfg, clock: cfg.Clock}
	if e.clock == nil {
		e.clock = resilience.Real
	}
	if reg := cfg.Registry; reg != nil {
		e.mOutcome = map[string]*telemetry.Counter{}
		for _, outcome := range []string{"hit_304", "hit_hot", "cold", "not_found", "error"} {
			e.mOutcome[outcome] = reg.Counter("strudel_edge_requests_total",
				"Requests answered by the serving edge, by mode and cache outcome.",
				"mode", cfg.Mode, "outcome", outcome)
		}
		e.mHotPages = reg.Gauge("strudel_edge_hot_pages",
			"Pages currently materialized (bytes resident) at the serving edge, by mode.",
			"mode", cfg.Mode)
		reg.GaugeFunc("strudel_edge_hit_ratio",
			"Fraction of edge requests answered as 304 or from resident bytes, by mode.",
			func() float64 { return e.Stats().HitRatio },
			"mode", cfg.Mode)
		e.timeouts = reg.Counter("strudel_http_render_timeouts_total",
			"Dynamic renders abandoned at the render deadline, by serving mode.",
			"mode", cfg.Mode)
	}
	if src != nil {
		e.state.Store(&edgeState{src: src, hot: map[string]*hotEntry{}})
	}
	return e
}

// Stats snapshots the edge's aggregate counters.
func (e *Edge) Stats() EdgeStats {
	st := EdgeStats{
		Mode:               e.cfg.Mode,
		Capacity:           e.cfg.HotPages,
		Hits304:            e.hits304.Load(),
		HitsHot:            e.hitsHot.Load(),
		Cold:               e.cold.Load(),
		NotFound:           e.notFound.Load(),
		Errors:             e.errs.Load(),
		Promotions:         e.promotions.Load(),
		Demotions:          e.demotions.Load(),
		Rematerializations: e.remat.Load(),
	}
	if s := e.state.Load(); s != nil {
		st.HotPages = len(s.hot)
	}
	st.Requests = st.Hits304 + st.HitsHot + st.Cold + st.NotFound + st.Errors
	if st.Requests > 0 {
		st.HitRatio = float64(st.Hits304+st.HitsHot) / float64(st.Requests)
	}
	return st
}

// NoteBuild records which build the edge is now serving as the
// strudel_edge_build_info info-gauge — the serving-plane end of the
// build_id correlation chain. Replace semantics: the family always
// holds exactly one series, so build swaps cannot grow cardinality.
func (e *Edge) NoteBuild(buildID string) {
	if e == nil || e.cfg.Registry == nil || buildID == "" {
		return
	}
	e.cfg.Registry.Info("strudel_edge_build_info",
		"Identity of the build the serving edge is answering from (value is always 1).",
		"mode", e.cfg.Mode, "build_id", buildID)
}

// HotKeys lists the currently materialized page keys, sorted.
func (e *Edge) HotKeys() []string {
	st := e.state.Load()
	if st == nil {
		return nil
	}
	out := make([]string, 0, len(st.hot))
	for key := range st.hot {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func (e *Edge) count(outcome string, v *atomic.Uint64) {
	v.Add(1)
	if c := e.mOutcome[outcome]; c != nil {
		c.Inc()
	}
}

// ServeHTTP answers GET and HEAD with full conditional-request
// support; every other method gets 405.
func (e *Edge) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		e.plainStatus(w, r, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	st := e.state.Load()
	if st == nil || st.src == nil {
		e.count("error", &e.errs)
		e.plainStatus(w, r, http.StatusServiceUnavailable, "no content loaded")
		return
	}
	key, ok := st.src.Resolve(r.URL.Path)
	if !ok {
		e.count("not_found", &e.notFound)
		e.plainStatus(w, r, http.StatusNotFound, "404 page not found")
		return
	}
	inm := r.Header.Get("If-None-Match")

	// Hot path: resident bytes, ETag known without any page work.
	if ent := st.hot[key]; ent != nil {
		if inm != "" && etagMatch(inm, ent.etag) {
			e.count("hit_304", &e.hits304)
			e.writeNotModified(w, ent.etag)
			return
		}
		e.count("hit_hot", &e.hitsHot)
		if ent.gz != nil && acceptsGzip(r) {
			e.writeBytes(w, r, ent.etag, ent.gz, "gzip")
			return
		}
		e.writeBytes(w, r, ent.etag, ent.body, "")
		return
	}

	// Cold conditional fast path: a materialized source knows the tag
	// without producing bytes.
	if inm != "" {
		if etag, ok := st.src.Meta(key); ok && etag != "" && etagMatch(inm, etag) {
			e.count("hit_304", &e.hits304)
			e.writeNotModified(w, etag)
			return
		}
	}

	body, etag, err := st.src.Render(r.Context(), key)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			e.count("not_found", &e.notFound)
			e.plainStatus(w, r, http.StatusNotFound, "404 page not found")
		case errors.Is(err, resilience.ErrTimeout):
			e.count("error", &e.errs)
			if e.timeouts != nil {
				e.timeouts.Inc()
			}
			e.plainStatus(w, r, http.StatusGatewayTimeout, "page computation timed out")
		default:
			e.count("error", &e.errs)
			internalError(w, r, e.cfg.Registry, e.cfg.Mode, err)
		}
		return
	}
	// Dynamic pages reveal their tag only after rendering: compare now
	// so conditional clients still save the transfer (not the compute).
	if inm != "" && etag != "" && etagMatch(inm, etag) {
		e.count("hit_304", &e.hits304)
		e.writeNotModified(w, etag)
		return
	}
	e.count("cold", &e.cold)
	e.writeString(w, r, etag, body)
}

// plainStatus writes a non-HTML status response, body-less on HEAD.
func (e *Edge) plainStatus(w http.ResponseWriter, r *http.Request, status int, msg string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.Header().Set("Content-Length", strconv.Itoa(len(msg)+1))
	w.WriteHeader(status)
	if r.Method != http.MethodHead {
		io.WriteString(w, msg+"\n")
	}
}

func (e *Edge) writeNotModified(w http.ResponseWriter, etag string) {
	h := w.Header()
	h.Set("ETag", etag)
	if e.cfg.Compress {
		h.Set("Vary", "Accept-Encoding")
	}
	w.WriteHeader(http.StatusNotModified)
}

func (e *Edge) pageHeaders(w http.ResponseWriter, etag string, length int, encoding string) {
	h := w.Header()
	h.Set("Content-Type", "text/html; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(length))
	if etag != "" {
		h.Set("ETag", etag)
	}
	if e.cfg.Compress {
		h.Set("Vary", "Accept-Encoding")
	}
	if encoding != "" {
		h.Set("Content-Encoding", encoding)
	}
}

func (e *Edge) writeBytes(w http.ResponseWriter, r *http.Request, etag string, body []byte, encoding string) {
	e.pageHeaders(w, etag, len(body), encoding)
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.Write(body)
}

func (e *Edge) writeString(w http.ResponseWriter, r *http.Request, etag, body string) {
	e.pageHeaders(w, etag, len(body), "")
	if r.Method == http.MethodHead {
		w.WriteHeader(http.StatusOK)
		return
	}
	io.WriteString(w, body)
}

// etagMatch implements If-None-Match comparison (RFC 9110 §13.1.2):
// the wildcard matches anything, and tags compare weakly — a W/
// prefix on either side is ignored, which is exactly what 304
// revalidation wants.
func etagMatch(header, etag string) bool {
	etag = strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		part = strings.TrimPrefix(part, "W/")
		if part != "" && part == etag {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the client accepts gzip content coding.
// Parses Accept-Encoding just enough to honor q=0 refusals. Content
// codings are case-insensitive (RFC 9110 §8.4.1).
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		token, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(token), "gzip") {
			continue
		}
		q := strings.TrimSpace(params)
		if q == "" {
			return true
		}
		if v, ok := strings.CutPrefix(q, "q="); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err == nil && f > 0
		}
		return true
	}
	return false
}

// gzipBytes compresses a page for the precompressed variant. Returns
// nil when compression does not help (tiny or incompressible pages).
func gzipBytes(body []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	zw.Write(body)
	zw.Close()
	if buf.Len() >= len(body) {
		return nil
	}
	return buf.Bytes()
}

// materialize renders one page into a hot entry. Returns nil when the
// page cannot be materialized (vanished, render error, unknown tag).
func (e *Edge) materialize(src Source, key string, promoted time.Time) *hotEntry {
	// Sources own their render bounds (a renderer-backed source applies
	// the render timeout itself), so no extra deadline here.
	body, etag, err := src.Render(context.Background(), key)
	if err != nil || etag == "" {
		return nil
	}
	ent := &hotEntry{etag: etag, body: []byte(body), promoted: promoted}
	if e.cfg.Compress {
		ent.gz = gzipBytes(ent.body)
	}
	return ent
}

// SetSource swaps in a new content snapshot. Residency survives the
// swap exactly where the ETag does: a hot page whose tag is unchanged
// under the new source keeps its bytes; a hot page whose bytes changed
// is eagerly re-materialized (so the hot set stays warm across
// refreshes); a vanished page is dropped.
func (e *Edge) SetSource(src Source) {
	e.policyMu.Lock()
	defer e.policyMu.Unlock()
	hot := map[string]*hotEntry{}
	if old := e.state.Load(); old != nil {
		for key, ent := range old.hot {
			etag, ok := src.Meta(key)
			switch {
			case !ok:
				e.demotions.Add(1)
			case etag == ent.etag:
				hot[key] = ent // tag unchanged ⇒ bytes provably unchanged
			default:
				if ne := e.materialize(src, key, ent.promoted); ne != nil {
					hot[key] = ne
					e.remat.Add(1)
				} else {
					e.demotions.Add(1)
				}
			}
		}
	}
	e.storeState(&edgeState{src: src, hot: hot})
}

// FlushHot drops every materialized page (e.g. after an in-place data
// refresh in dynamic mode, where per-page invalidation is unknowable).
func (e *Edge) FlushHot() {
	e.policyMu.Lock()
	defer e.policyMu.Unlock()
	old := e.state.Load()
	if old == nil || len(old.hot) == 0 {
		return
	}
	e.demotions.Add(uint64(len(old.hot)))
	e.storeState(&edgeState{src: old.src, hot: map[string]*hotEntry{}})
}

func (e *Edge) storeState(st *edgeState) {
	e.state.Store(st)
	if e.mHotPages != nil {
		e.mHotPages.Set(float64(len(st.hot)))
	}
}

// Rerank re-evaluates the hot/cold split against the accounting
// table's current hit ranking. Deterministic given the table state:
// ties break by key. Hysteresis is two-fold — a challenger must beat
// an incumbent's hits by the configured margin, and an incumbent
// younger than MinResidency is not considered for demotion at all.
func (e *Edge) Rerank() {
	if e.cfg.HotPages <= 0 || e.cfg.Accounting == nil {
		return
	}
	e.policyMu.Lock()
	defer e.policyMu.Unlock()
	st := e.state.Load()
	if st == nil || st.src == nil {
		return
	}
	now := e.clock.Now()

	// Aggregate accounting hits by page key: several request paths can
	// resolve to one page ("/" and "/index.html").
	sample := e.cfg.HotPages * 4
	if sample < 64 {
		sample = 64
	}
	hits := map[string]uint64{}
	for _, ps := range e.cfg.Accounting.Hot(sample) {
		if key, ok := st.src.Resolve(ps.Path); ok {
			hits[key] += ps.Hits
		}
	}

	type cand struct {
		key      string
		hits     uint64
		score    float64
		resident bool
	}
	seen := map[string]bool{}
	var ranked []cand
	for key, h := range hits {
		_, res := st.hot[key]
		score := float64(h)
		if res {
			score *= 1 + e.cfg.Hysteresis
		}
		ranked = append(ranked, cand{key: key, hits: h, score: score, resident: res})
		seen[key] = true
	}
	for key := range st.hot {
		if !seen[key] {
			ranked = append(ranked, cand{key: key, resident: true})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		if ranked[i].resident != ranked[j].resident {
			return ranked[i].resident // incumbents win exact ties
		}
		return ranked[i].key < ranked[j].key
	})

	// Dwell: incumbents younger than MinResidency hold their slot
	// regardless of rank.
	selected := map[string]bool{}
	for key, ent := range st.hot {
		if now.Sub(ent.promoted) < e.cfg.MinResidency {
			selected[key] = true
		}
	}
	for _, c := range ranked {
		if len(selected) >= e.cfg.HotPages {
			break
		}
		if selected[c.key] {
			continue
		}
		if !c.resident && c.hits == 0 {
			continue // never materialize a page nobody asked for
		}
		selected[c.key] = true
	}

	hot := make(map[string]*hotEntry, len(selected))
	for key := range selected {
		if ent := st.hot[key]; ent != nil {
			hot[key] = ent
			continue
		}
		if ent := e.materialize(st.src, key, now); ent != nil {
			hot[key] = ent
			e.promotions.Add(1)
		}
	}
	for key := range st.hot {
		if _, ok := hot[key]; !ok {
			e.demotions.Add(1)
		}
	}
	e.storeState(&edgeState{src: st.src, hot: hot})
}

// RunPolicy re-ranks on a clock-driven loop until stop closes. every
// <= 0 defaults to 10s.
func (e *Edge) RunPolicy(stop <-chan struct{}, every time.Duration) {
	if every <= 0 {
		every = 10 * time.Second
	}
	for {
		select {
		case <-stop:
			return
		case <-e.clock.After(every):
			e.Rerank()
		}
	}
}
