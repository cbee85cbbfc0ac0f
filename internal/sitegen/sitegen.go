// Package sitegen implements STRUDEL's HTML generator (paper Secs. 2.5
// and 4): given a site graph and a set of HTML templates, it produces
// the browsable Web site. For every internal object the generator
// selects a template — an object-specific one, the value of the
// object's HTML-template attribute, or the template associated with a
// collection (or Skolem function) the object belongs to — evaluates
// it, and either emits the result as a page or embeds it in pages
// that refer to the object. The choice to realize an object as a page
// or a page component is delayed until HTML generation: an object
// with a template is a page by default; the EMBED directive (or an
// embed-only association) overrides the default per reference.
package sitegen

import (
	"context"
	"fmt"
	"html"
	"path/filepath"
	"sort"
	"strings"

	"strudel/internal/fsx"
	"strudel/internal/graph"
	"strudel/internal/pool"
	"strudel/internal/template"
)

// Config configures a Generator.
type Config struct {
	// Templates maps association keys to templates. For each object
	// the keys tried, in order, are: the object's symbolic name
	// ("RootPage()"), its Skolem function name ("RootPage"), then
	// each collection it belongs to.
	Templates map[string]*template.Template
	// HTMLTemplateAttr names the attribute whose value selects a
	// template for an object (selection rule 2). Default
	// "HTML-template".
	HTMLTemplateAttr string
	// EmbedOnly lists association keys whose objects are never
	// realized as standalone pages — they are always embedded
	// (e.g. PaperPresentation fragments).
	EmbedOnly map[string]bool
	// Index names the association key realized as index.html
	// (typically "RootPage").
	Index string
	// FileResolver, when set, lets text and HTML file atoms embed
	// their contents (text escaped, HTML verbatim). Without it, file
	// atoms render as their path.
	FileResolver func(path string) (string, error)
	// MaxEmbedDepth bounds recursive embedding; 0 means 16.
	MaxEmbedDepth int
	// Workers bounds how many pages render concurrently; 0 means
	// runtime.GOMAXPROCS(0), 1 renders sequentially. The output is
	// byte-identical at any worker count: paths are assigned in sorted
	// OID order before rendering, and each page renders independently
	// over the immutable site graph.
	Workers int
	// Pool, when set, overrides Workers with a shared (possibly
	// instrumented) worker pool.
	Pool *pool.Pool
}

// Page is one generated HTML page.
type Page struct {
	Path string
	OID  graph.OID
	// Name is the page object's symbolic node name ("YearPage(1997)").
	// It is the page's stable identity across rebuilds: OIDs shift when
	// the site graph is re-evaluated, names do not.
	Name  string
	HTML  string
	Title string
	// ETag is the page's strong HTTP entity tag, BytesETag(HTML).
	// Computed once at build/delta time; the serving edge answers
	// If-None-Match from it. Carried unchanged when a delta rebuild
	// reuses the page, and equal to the old tag when it re-renders the
	// page to the same bytes.
	ETag string
}

// Site is the browsable result of generation.
type Site struct {
	// Pages by path, e.g. "YearPage_1997.html".
	Pages map[string]*Page
	// PathOf maps page objects to their paths.
	PathOf map[graph.OID]string
	// Collisions counts pages whose natural path was taken and got a
	// numeric suffix. Suffix assignment follows OID enumeration order,
	// which name-keyed adoption cannot reproduce, so Regenerate renders
	// in full when either site has a collision.
	Collisions int
}

// WriteTo writes every page under dir. Each page is written to a temp
// file and renamed into place, so a concurrent reader of the output
// directory (a web server pointed at it) observes either the old or
// the new page in full, never a truncated prefix. Writes are not
// fsynced — crash-durable publication is the publish package's job.
func (s *Site) WriteTo(dir string) error {
	return s.WriteToFS(fsx.OS, dir)
}

// WriteToFS is WriteTo over an injectable filesystem. Pages are
// written in sorted path order so the operation sequence is
// deterministic under fault injection.
func (s *Site) WriteToFS(fsys fsx.FS, dir string) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, path := range s.Paths() {
		if err := fsx.WriteFileAtomic(fsys, filepath.Join(dir, path), []byte(s.Pages[path].HTML), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Paths returns the page paths, sorted.
func (s *Site) Paths() []string {
	out := make([]string, 0, len(s.Pages))
	for p := range s.Pages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Generator renders a site graph into HTML pages.
type Generator struct {
	site *graph.Graph
	cfg  Config
	// colls are the site graph's collection names, sorted: the order
	// template selection tries them in.
	colls []string
}

// New creates a generator for a site graph. The graph's collections
// must not change afterwards.
func New(site *graph.Graph, cfg Config) *Generator {
	if cfg.HTMLTemplateAttr == "" {
		cfg.HTMLTemplateAttr = "HTML-template"
	}
	if cfg.MaxEmbedDepth == 0 {
		cfg.MaxEmbedDepth = 16
	}
	if cfg.Templates == nil {
		cfg.Templates = map[string]*template.Template{}
	}
	return &Generator{site: site, cfg: cfg, colls: site.Collections()}
}

// skolemFunc extracts the Skolem function name from an object name:
// "YearPage(1997)" → "YearPage"; plain names return themselves.
func skolemFunc(name string) string {
	if i := strings.IndexByte(name, '('); i > 0 {
		return name[:i]
	}
	return name
}

// associationKeys appends the template-selection keys for an object
// to keys, in priority order.
func (g *Generator) associationKeys(oid graph.OID, keys []string) []string {
	name := g.site.NodeName(oid)
	if name != "" {
		keys = append(keys, name)
		if fn := skolemFunc(name); fn != name {
			keys = append(keys, fn)
		}
	}
	for _, c := range g.colls {
		if g.site.InCollection(c, graph.NodeValue(oid)) {
			keys = append(keys, c)
		}
	}
	return keys
}

// selectTemplate implements the paper's three selection rules. It runs
// for every page and every link a render emits, so the keys live in a
// stack buffer.
func (g *Generator) selectTemplate(oid graph.OID) (*template.Template, string, bool) {
	var buf [4]string
	keys := g.associationKeys(oid, buf[:0])
	// Rule 1 and 3: object-specific, then Skolem function, then
	// collection associations.
	// Rule 2: the object's HTML-template attribute takes priority
	// over collection-level association but not over an
	// object-specific one.
	if len(keys) > 0 {
		if t, ok := g.cfg.Templates[keys[0]]; ok {
			return t, keys[0], true
		}
	}
	if v, ok := g.site.First(oid, g.cfg.HTMLTemplateAttr); ok {
		if s, sok := v.AsString(); sok {
			if t, tok := g.cfg.Templates[s]; tok {
				return t, s, true
			}
		}
	}
	for _, k := range keys[min(1, len(keys)):] {
		if t, ok := g.cfg.Templates[k]; ok {
			return t, k, true
		}
	}
	return nil, "", false
}

// isPage reports whether the object is realized as a standalone page.
func (g *Generator) isPage(oid graph.OID) bool {
	t, key, ok := g.selectTemplate(oid)
	return ok && t != nil && !g.cfg.EmbedOnly[key]
}

// pagePath computes the output file for a page object.
func (g *Generator) pagePath(oid graph.OID) string {
	name := g.site.NodeName(oid)
	if name == "" {
		name = fmt.Sprintf("object-%d", uint64(oid))
	}
	if _, key, ok := g.selectTemplate(oid); ok && g.cfg.Index != "" &&
		(key == g.cfg.Index || skolemFunc(name) == g.cfg.Index) {
		return "index.html"
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		case r == '(', r == ')', r == ',', r == ' ', r == '.':
			return '_'
		default:
			return '-'
		}
	}, name)
	safe = strings.Trim(safe, "_")
	if safe == "" {
		safe = fmt.Sprintf("object-%d", uint64(oid))
	}
	return safe + ".html"
}

// Generate renders every page object of the site graph from scratch,
// the reference incremental regeneration must match byte for byte.
// Pages render concurrently (see Config.Workers); the result is
// byte-identical to a sequential run.
func (g *Generator) Generate() (*Site, error) {
	site, pageOIDs := g.assignPaths()
	// Second pass: render. The site graph and the path maps are
	// read-only from here on, and each task writes only its own Page,
	// so pages render concurrently; the pool joins its workers before
	// returning, which orders every write before Generate's return.
	if err := g.renderPages(context.Background(), site, pageOIDs); err != nil {
		return nil, err
	}
	return site, nil
}

// assignPaths runs the first generation pass: it assigns every page
// object its output path so links can resolve forward. Page OIDs are
// explicitly sorted so path assignment — and in particular the
// collision-disambiguation suffixes — never depends on the enumeration
// order of the underlying graph: two builds of the same graph produce
// identical Paths() at any worker count.
func (g *Generator) assignPaths() (*Site, []graph.OID) {
	site := &Site{Pages: map[string]*Page{}, PathOf: map[graph.OID]string{}}
	var pageOIDs []graph.OID
	for _, oid := range g.site.Nodes() {
		if g.isPage(oid) {
			pageOIDs = append(pageOIDs, oid)
		}
	}
	sort.Slice(pageOIDs, func(i, j int) bool { return pageOIDs[i] < pageOIDs[j] })
	for _, oid := range pageOIDs {
		path := g.pagePath(oid)
		// Disambiguate collisions deterministically.
		for i := 2; ; i++ {
			if _, taken := site.Pages[path]; !taken {
				break
			}
			if i == 2 {
				site.Collisions++
			}
			path = strings.TrimSuffix(g.pagePath(oid), ".html") + fmt.Sprintf("-%d.html", i)
		}
		site.Pages[path] = &Page{Path: path, OID: oid, Name: g.site.NodeName(oid)}
		site.PathOf[oid] = path
	}
	return site, pageOIDs
}

// renderPages renders the given page objects into site concurrently.
// Each rendered page also gets its ETag here: the hash of its bytes
// (see etag.go).
func (g *Generator) renderPages(ctx context.Context, site *Site, pageOIDs []graph.OID) error {
	p := g.cfg.Pool
	if p == nil {
		p = pool.New(g.cfg.Workers)
	}
	link := func(oid graph.OID) (string, bool) {
		path, ok := site.PathOf[oid]
		return path, ok
	}
	return pool.ForEach(pool.WithPhase(ctx, "render"), p, len(pageOIDs), func(_ context.Context, i int) error {
		oid := pageOIDs[i]
		htmlText, err := g.renderObject(oid, link, 0)
		if err != nil {
			return fmt.Errorf("sitegen: rendering %s: %w", g.site.DisplayName(oid), err)
		}
		pg := site.Pages[site.PathOf[oid]]
		pg.HTML = htmlText
		pg.Title = template.LinkText(g.site, oid)
		pg.ETag = BytesETag(htmlText)
		return nil
	})
}

// linkFunc maps a page object to the URL that links to it use, and
// reports whether the object is a page at all.
type linkFunc func(graph.OID) (string, bool)

// RenderPage renders one page object exactly as Generate does, with
// every page object it links to addressed by url(name). It serves site
// graphs that hold only what one render reads, such as the click-time
// renderer's transient graph, where no site-wide path assignment
// exists.
func (g *Generator) RenderPage(oid graph.OID, url func(name string) string) (string, error) {
	return g.renderObject(oid, func(oid graph.OID) (string, bool) {
		if !g.isPage(oid) {
			return "", false
		}
		return url(g.site.NodeName(oid)), true
	}, 0)
}

// renderObject evaluates the object's template with a renderer that
// resolves references into links or embedded fragments.
func (g *Generator) renderObject(oid graph.OID, link linkFunc, depth int) (string, error) {
	if depth > g.cfg.MaxEmbedDepth {
		return "", fmt.Errorf("embedding depth exceeds %d (cycle through %s?)", g.cfg.MaxEmbedDepth, g.site.DisplayName(oid))
	}
	tpl, _, ok := g.selectTemplate(oid)
	if !ok {
		// No template: render the object's display name.
		return html.EscapeString(g.site.DisplayName(oid)), nil
	}
	env := &template.Env{
		Graph: g.site,
		Self:  oid,
		Render: func(v graph.Value, opts template.RenderOpts) (string, error) {
			return g.renderValue(v, opts, link, depth)
		},
	}
	return tpl.ExecuteString(env)
}

// renderValue implements the reference-rendering rules.
func (g *Generator) renderValue(v graph.Value, opts template.RenderOpts, link linkFunc, depth int) (string, error) {
	if v.IsNode() {
		oid := v.OID()
		if !opts.Embed {
			if url, isPage := link(oid); isPage {
				tag := opts.LinkTag
				if tag == "" {
					tag = template.LinkText(g.site, oid)
				}
				return fmt.Sprintf("<a href=%q>%s</a>", url, html.EscapeString(tag)), nil
			}
		}
		// Embedded (by directive or because the object is not a page).
		return g.renderObject(oid, link, depth+1)
	}
	// File atoms may embed their contents.
	if v.Kind() == graph.KindFile && g.cfg.FileResolver != nil {
		switch v.FileType() {
		case graph.FileText:
			content, err := g.cfg.FileResolver(v.Text())
			if err == nil {
				return html.EscapeString(content), nil
			}
		case graph.FileHTML:
			content, err := g.cfg.FileResolver(v.Text())
			if err == nil {
				return content, nil
			}
		}
	}
	return template.RenderAtom(g.site, v, opts)
}
