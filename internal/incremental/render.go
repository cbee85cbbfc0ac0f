package incremental

import (
	"context"
	"iter"
	"net/url"
	"time"

	"strudel/internal/graph"
	"strudel/internal/sitegen"
	"strudel/internal/telemetry"
	"strudel/internal/template"
)

// Renderer renders dynamically computed pages to HTML through the
// static generator's rendering rules (sitegen.Generator.RenderPage),
// so a page renders the bytes full materialization gives it. Because a
// dynamic page is not part of a materialized site graph, the renderer
// materializes a small transient graph around the requested page —
// only what the templates rendering it can read (see materialize) —
// and renders the page from it.
type Renderer struct {
	Dec       *Decomposition
	Templates map[string]*template.Template
	// EmbedOnly marks functions always embedded, never linked.
	EmbedOnly map[string]bool
	// URLFor maps a page key to its URL; default "/page/<key>".
	URLFor func(key string) string
	// MaxDepth bounds how deep pages embed pages, as the generator's
	// Config.MaxEmbedDepth does (0 means its default): a render that
	// embeds deeper, as an EMBED cycle does, fails. It does not limit
	// which pages a render loads.
	MaxDepth int

	// BuiltAt is when the renderer's data graph was last refreshed (or
	// re-validated as unchanged). The serving layer reads it to report
	// the staleness of click-time content.
	BuiltAt time.Time

	// renderSeconds, when set via Instrument, times RenderPage — the
	// paper's "click time" for one dynamically computed page.
	renderSeconds *telemetry.Histogram
}

// Instrument makes the renderer record per-page render latency (the
// click time of Sec. 6) and wires its decomposition's cache counters
// into the same registry. Call before serving traffic.
func (r *Renderer) Instrument(reg *telemetry.Registry) {
	r.renderSeconds = reg.Histogram("strudel_dynamic_render_seconds",
		"Click-time latency of dynamically computed pages, in seconds.",
		telemetry.DefBuckets)
	if r.Dec != nil {
		r.Dec.Instrument(reg)
	}
}

func (r *Renderer) urlFor(key string) string {
	if r.URLFor != nil {
		return r.URLFor(key)
	}
	return "/page/" + url.PathEscape(key)
}

// RenderPage computes and renders one page.
func (r *Renderer) RenderPage(ref PageRef) (string, error) {
	return r.RenderPageContext(context.Background(), ref)
}

// RenderPageContext is RenderPage with the request context threaded
// through: when the context carries a sampled request span (see
// telemetry.SpanFromContext), the render and each page-query
// evaluation it triggers appear as child spans of the request, so a
// sampled trace shows where click time actually went. An untraced
// context pays one context lookup and nothing else.
func (r *Renderer) RenderPageContext(ctx context.Context, ref PageRef) (string, error) {
	if r.renderSeconds != nil {
		t0 := time.Now()
		defer func() { r.renderSeconds.Observe(time.Since(t0).Seconds()) }()
	}
	if telemetry.SpanFromContext(ctx) != nil {
		var finish func()
		_, ctx, finish = telemetry.StartSpan(ctx, "render "+ref.Key())
		defer finish()
	}
	t := &transient{r: r, g: graph.New("dynamic"), pages: map[string]*transientPage{}}
	var reads *template.ReadSet
	if tpl, ok := r.Templates[ref.Func]; ok {
		reads = tpl.Reads()
	}
	p, err := t.materialize(ctx, ref, reads)
	if err != nil {
		return "", err
	}
	return r.render(t.g, p.oid)
}

// render renders the page node oid of a transient graph, linking every
// page node it references to the page's URL.
func (r *Renderer) render(g *graph.Graph, oid graph.OID) (string, error) {
	gen := sitegen.New(g, sitegen.Config{Templates: r.Templates, EmbedOnly: r.EmbedOnly, MaxEmbedDepth: r.MaxDepth})
	return gen.RenderPage(oid, r.urlFor)
}

// transient is the graph one render evaluates its templates against,
// with what it has loaded of each page so far.
type transient struct {
	r     *Renderer
	g     *graph.Graph
	pages map[string]*transientPage
}

// transientPage is one page's node in the transient graph. Its edges
// are loaded a whole label at a time, in PageData order, so a template
// sees every value of an attribute it reads, in the order a complete
// materialization would give.
type transientPage struct {
	oid  graph.OID
	data *PageData
	// loaded holds the labels whose edges are in the graph; visited
	// holds the read-set nodes the page has been materialized for.
	loaded  map[string]bool
	visited map[*template.ReadSet]bool
}

// page returns ref's node, creating it (with no edges) on first use.
func (t *transient) page(ref PageRef) *transientPage {
	key := ref.keyWith(t.r.Dec.input)
	p, ok := t.pages[key]
	if !ok {
		p = &transientPage{oid: t.g.NewNode(key)}
		t.pages[key] = p
	}
	return p
}

// materialize loads into the transient graph what a template can read
// of ref when reads is the read-set node it reaches ref at: the edges
// whose labels reads names, then, recursively, each page target at
// the child node for its label. A target that may be embedded (the
// child is EMBED-marked, or its function is embed-only) and has a
// template is also materialized for that template's own read set,
// since rendering it evaluates the template there. A page is computed
// only when some node it is reached at has children, so a target the
// template reads nothing of costs its key alone; a link's anchor text
// counts as read (see template.ReadSet).
// Each (page, node) pair is visited once, which bounds the walk by
// the pages times the read-set nodes and ends EMBED cycles; the
// embedding depth bound is the generator's.
func (t *transient) materialize(ctx context.Context, ref PageRef, reads *template.ReadSet) (*transientPage, error) {
	p := t.page(ref)
	if reads == nil || reads.Leaf() || p.visited[reads] {
		return p, nil
	}
	if p.data == nil {
		pd, err := t.r.Dec.PageContext(ctx, ref)
		if err != nil {
			return nil, err
		}
		p.data = pd
		p.loaded = map[string]bool{}
		p.visited = map[*template.ReadSet]bool{}
	}
	p.visited[reads] = true
	var fresh []string
	for label, run := range labelRuns(p.data.Edges) {
		if reads.Child(label) == nil || p.loaded[label] {
			continue
		}
		for i := range run {
			if err := t.addEdge(p.oid, &run[i]); err != nil {
				return nil, err
			}
		}
		fresh = append(fresh, label)
	}
	for _, label := range fresh {
		p.loaded[label] = true
	}
	for label, run := range labelRuns(p.data.Edges) {
		sub := reads.Child(label)
		if sub == nil {
			continue
		}
		for i := range run {
			target := run[i].Page
			if target == nil {
				continue
			}
			if _, err := t.materialize(ctx, *target, sub); err != nil {
				return nil, err
			}
			if !sub.Embed() && !t.r.EmbedOnly[target.Func] {
				continue
			}
			if tpl, ok := t.r.Templates[target.Func]; ok {
				if _, err := t.materialize(ctx, *target, tpl.Reads()); err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}

// labelRuns yields a page's edges as maximal runs of one label. The
// edges of one label mostly come from one link clause and sit
// together, so a caller looks a label up once per run, not per edge.
func labelRuns(edges []PageEdge) iter.Seq2[string, []PageEdge] {
	return func(yield func(string, []PageEdge) bool) {
		for i := 0; i < len(edges); {
			j := i + 1
			for j < len(edges) && edges[j].Label == edges[i].Label {
				j++
			}
			if !yield(edges[i].Label, edges[i:j]) {
				return
			}
			i = j
		}
	}
}

// addEdge adds one of a page's edges to the transient graph.
func (t *transient) addEdge(from graph.OID, e *PageEdge) error {
	to := e.Value
	switch {
	case e.Page != nil:
		to = graph.NodeValue(t.page(*e.Page).oid)
	case e.Value.IsNode():
		// Data-graph node: carry its name across for display.
		to = graph.NodeValue(t.g.NewNode(t.r.Dec.input.NodeName(e.Value.OID())))
	}
	return t.g.AddEdge(from, e.Label, to)
}
