// Package incremental implements STRUDEL's dynamic site evaluation
// ([FER 98c], paper Secs. 1 and 6): instead of completely
// materializing a site graph before browsing, the site-definition
// query is decomposed into one query per Skolem function (per page
// class). Only the site's roots are precomputed; when a user clicks
// to a page, the page's query runs at click time against the data
// graph, and its result is cached to reduce click time for future
// visits. The entire spectrum between full materialization and pure
// click-time evaluation is thus available.
package incremental

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"strudel/internal/graph"
	"strudel/internal/pool"
	"strudel/internal/schema"
	"strudel/internal/struql"
	"strudel/internal/telemetry"
)

// PageRef identifies one page: a Skolem function applied to values.
type PageRef struct {
	Func string
	Args []graph.Value
	// key caches the graph-resolved rendering (node args by name).
	key string
}

// Key renders the canonical page key, e.g. "YearPage(1997)"; it
// matches the node names the full evaluator gives Skolem nodes, so
// materialized and dynamic sites agree on identity.
func (r PageRef) Key() string {
	return r.keyWith(nil)
}

// keyWith is Key with node arguments named by g (struql.SkolemName).
func (r PageRef) keyWith(g *graph.Graph) string {
	if r.key != "" {
		return r.key
	}
	return struql.SkolemName(g, r.Func, r.Args)
}

// PageEdge is one outgoing edge of a dynamically computed page.
type PageEdge struct {
	Label string
	// Page is set when the target is another page.
	Page *PageRef
	// Value is set when the target is an atom or a data-graph node.
	Value graph.Value
}

// PageData is the computed content of one page.
type PageData struct {
	Ref   PageRef
	Key   string
	Edges []PageEdge
}

// First returns the first value of an attribute among the page's
// atom-valued edges.
func (p *PageData) First(label string) (graph.Value, bool) {
	for _, e := range p.Edges {
		if e.Label == label && e.Page == nil {
			return e.Value, true
		}
	}
	return graph.Value{}, false
}

// pageClause is one link clause contributing edges to a function's
// pages, with the full condition conjunction governing it.
type pageClause struct {
	conds    []struql.Condition
	fromArgs []struql.Term
	label    struql.LabelTerm
	to       struql.LinkTarget
}

// collectClause is a collect clause with its governing conjunction,
// used to compute the site's roots.
type collectClause struct {
	conds      []struql.Condition
	collection string
	target     struql.LinkTarget
}

// Stats reports cache behaviour.
type Stats struct {
	CacheHits, CacheMisses int
	BindingsComputed       int
}

// decompMetrics are the decomposition's telemetry handles (nil when
// not instrumented); they mirror Stats.
type decompMetrics struct {
	hits, misses, bindings *telemetry.Counter
}

// Decomposition is a site-definition query split into per-page
// queries over a data graph.
type Decomposition struct {
	input *graph.Graph
	reg   *struql.Registry
	// planner, when set, evaluates conjunctions through the query
	// optimizer instead of the interpreter (see UsePlanner).
	planner func([]struql.Condition, []struql.Binding) ([]struql.Binding, error)

	pages    map[string][]pageClause
	collects []collectClause
	// siteSchema is the query's site schema, kept for delta-driven
	// cache adoption across refreshes (AdoptCache).
	siteSchema *schema.SiteSchema
	// pl bounds how many pages MaterializeAll computes concurrently; a
	// nil pool runs with runtime.GOMAXPROCS(0) workers. Set it (via
	// SetWorkers or UsePool) before materializing, not concurrently.
	pl *pool.Pool

	mu    sync.Mutex
	cache map[string]*PageData
	// known maps page keys to refs discovered so far, so a server can
	// resolve an incoming URL back to a page.
	known map[string]PageRef
	stats Stats
	met   *decompMetrics
}

// Decompose splits a query. The registry may be nil (built-ins only).
func Decompose(q *struql.Query, input *graph.Graph, reg *struql.Registry) *Decomposition {
	if reg == nil {
		reg = struql.NewRegistry()
	}
	d := &Decomposition{
		input: input,
		reg:   reg,
		pages: map[string][]pageClause{},
		cache: map[string]*PageData{},
		known: map[string]PageRef{},
	}
	var walk func(b *struql.Block, conds []struql.Condition)
	walk = func(b *struql.Block, conds []struql.Condition) {
		conds = append(conds[:len(conds):len(conds)], b.Where...)
		for _, l := range b.Links {
			fn := l.From.Skolem.Func
			d.pages[fn] = append(d.pages[fn], pageClause{
				conds:    conds,
				fromArgs: l.From.Skolem.Args,
				label:    l.Label,
				to:       l.To,
			})
		}
		for _, c := range b.Collects {
			d.collects = append(d.collects, collectClause{
				conds:      conds,
				collection: c.Collection,
				target:     c.Target,
			})
		}
		// Creates without links still define (empty) pages.
		for _, ct := range b.Creates {
			if _, ok := d.pages[ct.Func]; !ok {
				d.pages[ct.Func] = nil
			}
		}
		for _, ch := range b.Children {
			walk(ch, conds)
		}
	}
	walk(q.Root, nil)
	d.siteSchema = schema.Build(q)
	return d
}

// Schema returns the site schema of the decomposed query.
func (d *Decomposition) Schema() *schema.SiteSchema { return d.siteSchema }

// Instrument makes the decomposition report cache behaviour into a
// telemetry registry: page-cache hits and misses, and the
// number of binding rows computed at click time. Call before serving
// traffic; the existing Stats accessor keeps working either way.
func (d *Decomposition) Instrument(reg *telemetry.Registry) {
	cache := func(event string) *telemetry.Counter {
		return reg.Counter("strudel_dynamic_cache_events_total",
			"Dynamic page-cache events (hit, miss, adopt).", "event", event)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.met = &decompMetrics{
		hits:   cache("hit"),
		misses: cache("miss"),
		bindings: reg.Counter("strudel_dynamic_bindings_total",
			"Binding rows computed by click-time query evaluation."),
	}
}

// SetWorkers bounds how many pages MaterializeAll computes
// concurrently; 0 means runtime.GOMAXPROCS(0), 1 materializes
// sequentially. Page contents, the page count and the cache are
// identical at any worker count.
func (d *Decomposition) SetWorkers(n int) { d.pl = pool.New(n) }

// UsePool makes MaterializeAll fan out over a shared (possibly
// instrumented) worker pool instead of a private one.
func (d *Decomposition) UsePool(p *pool.Pool) { d.pl = p }

// UsePlanner routes the per-page conjunctions through a planner hook
// (e.g. optimizer.Hook), so click-time evaluation also benefits from
// the repository's indexes.
func (d *Decomposition) UsePlanner(fn func([]struql.Condition, []struql.Binding) ([]struql.Binding, error)) {
	d.planner = fn
}

// evalBindings evaluates one conjunction via the planner when set.
func (d *Decomposition) evalBindings(conds []struql.Condition, seed []struql.Binding) ([]struql.Binding, error) {
	if d.planner != nil {
		return d.planner(conds, seed)
	}
	return struql.EvalBindings(d.input, d.reg, conds, seed)
}

// Input returns the data graph this decomposition evaluates over.
// Serving layers use it to expose ad-hoc queries against the same
// snapshot the click-time pages see; after a refresh swaps in a new
// renderer, its Input is the newly committed graph.
func (d *Decomposition) Input() *graph.Graph { return d.input }

// Functions lists the page classes (Skolem functions), sorted.
func (d *Decomposition) Functions() []string {
	out := make([]string, 0, len(d.pages))
	for f := range d.pages {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Stats returns a copy of the cache statistics.
func (d *Decomposition) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// CachedKeys returns the keys of all cached pages, sorted; tests use it
// to observe which entries a refresh kept.
func (d *Decomposition) CachedKeys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.cache))
	for k := range d.cache {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// addBindings records click-time binding rows in both Stats and the
// telemetry counter.
func (d *Decomposition) addBindings(n int) {
	d.mu.Lock()
	d.stats.BindingsComputed += n
	met := d.met
	d.mu.Unlock()
	if met != nil {
		met.bindings.Add(n)
	}
}

// Resolve maps a page key back to a discovered PageRef.
func (d *Decomposition) Resolve(key string) (PageRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, ok := d.known[key]
	return r, ok
}

func (d *Decomposition) remember(r *PageRef) string {
	if r.key == "" {
		r.key = r.keyWith(d.input)
	}
	d.mu.Lock()
	d.known[r.key] = *r
	d.mu.Unlock()
	return r.key
}

// Roots precomputes the page references (and plain values) collected
// into a named collection — the precomputed entry points of the site.
func (d *Decomposition) Roots(collection string) ([]PageRef, error) {
	var out []PageRef
	seen := map[string]bool{}
	for _, c := range d.collects {
		if c.collection != collection || c.target.Skolem == nil {
			continue
		}
		rows, err := d.evalBindings(c.conds, nil)
		if err != nil {
			return nil, err
		}
		d.addBindings(len(rows))
		for _, row := range rows {
			ref, err := refFromSkolem(*c.target.Skolem, row)
			if err != nil {
				return nil, err
			}
			key := d.remember(&ref)
			if !seen[key] {
				seen[key] = true
				out = append(out, ref)
			}
		}
	}
	return out, nil
}

// PageContext is Page with trace propagation: when the context
// carries a span (a sampled request, or a traced materialization),
// the page computation is recorded as a child span named after the
// page key, with its binding count and cache outcome. An untraced
// context costs one context lookup.
func (d *Decomposition) PageContext(ctx context.Context, ref PageRef) (*PageData, error) {
	if telemetry.SpanFromContext(ctx) == nil {
		return d.Page(ref)
	}
	sp, _, finish := telemetry.StartSpan(ctx, "page "+ref.Key())
	defer finish()
	d.mu.Lock()
	_, cached := d.cache[ref.keyWith(d.input)]
	d.mu.Unlock()
	pd, err := d.Page(ref)
	sp.SetAttr("cached", cached)
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("edges", len(pd.Edges))
	}
	return pd, err
}

// Page computes (or returns from cache) one page's content.
func (d *Decomposition) Page(ref PageRef) (*PageData, error) {
	key := d.remember(&ref)
	d.mu.Lock()
	met := d.met
	if pd, ok := d.cache[key]; ok {
		d.stats.CacheHits++
		d.mu.Unlock()
		if met != nil {
			met.hits.Inc()
		}
		return pd, nil
	}
	d.stats.CacheMisses++
	clauses := d.pages[ref.Func]
	d.mu.Unlock()
	if met != nil {
		met.misses.Inc()
	}

	pd := &PageData{Ref: ref, Key: key}
	edgeSeen := map[string]bool{}
	var sig []byte
	type aggGroup struct {
		op    struql.AggOp
		label string
		seen  map[graph.Value]struct{}
		vals  []graph.Value
	}
	var aggGroups []*aggGroup
	for _, cl := range clauses {
		if len(cl.fromArgs) != len(ref.Args) {
			continue // a different arity overload of the function
		}
		// Seed the bindings with the page's own arguments.
		seed := struql.Binding{}
		ok := true
		for i, t := range cl.fromArgs {
			if t.IsVar() {
				if prev, bound := seed[t.Var]; bound && prev != ref.Args[i] {
					ok = false
					break
				}
				seed[t.Var] = ref.Args[i]
			} else if t.Const != ref.Args[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		rows, err := d.evalBindings(cl.conds, []struql.Binding{seed})
		if err != nil {
			return nil, fmt.Errorf("incremental: page %s: %w", key, err)
		}
		d.addBindings(len(rows))
		// Aggregate targets group over all of this clause's rows.
		var grp *aggGroup
		if cl.to.Agg != nil && len(rows) > 0 {
			label := cl.label.Lit
			if cl.label.Var != "" {
				if lv, ok := rows[0][cl.label.Var]; ok {
					label, _ = lv.AsString()
				}
			}
			grp = &aggGroup{op: cl.to.Agg.Op, label: label, seen: map[graph.Value]struct{}{}}
			aggGroups = append(aggGroups, grp)
		}
		for _, row := range rows {
			if grp != nil {
				v, ok := row[cl.to.Agg.Var]
				if !ok {
					return nil, fmt.Errorf("incremental: page %s: aggregate variable %q unbound", key, cl.to.Agg.Var)
				}
				if _, dup := grp.seen[v]; !dup {
					grp.seen[v] = struct{}{}
					grp.vals = append(grp.vals, v)
				}
				continue
			}
			edge, err := d.edgeFor(cl, row)
			if err != nil {
				return nil, fmt.Errorf("incremental: page %s: %w", key, err)
			}
			sig = edgeSignature(sig[:0], &edge)
			if !edgeSeen[string(sig)] {
				edgeSeen[string(sig)] = true
				pd.Edges = append(pd.Edges, edge)
			}
		}
	}
	for _, grp := range aggGroups {
		v, err := struql.Aggregate(grp.op, grp.vals)
		if err != nil {
			return nil, fmt.Errorf("incremental: page %s: %w", key, err)
		}
		pd.Edges = append(pd.Edges, PageEdge{Label: grp.label, Value: v})
	}
	d.mu.Lock()
	d.cache[key] = pd
	d.mu.Unlock()
	return pd, nil
}

func (d *Decomposition) edgeFor(cl pageClause, row struql.Binding) (PageEdge, error) {
	var e PageEdge
	switch {
	case cl.label.Var != "":
		lv, ok := row[cl.label.Var]
		if !ok {
			return e, fmt.Errorf("arc variable %q unbound", cl.label.Var)
		}
		e.Label, _ = lv.AsString()
	default:
		e.Label = cl.label.Lit
	}
	if cl.to.Skolem != nil {
		ref, err := refFromSkolem(*cl.to.Skolem, row)
		if err != nil {
			return e, err
		}
		d.remember(&ref)
		e.Page = &ref
		return e, nil
	}
	if cl.to.Term.IsVar() {
		v, ok := row[cl.to.Term.Var]
		if !ok {
			return e, fmt.Errorf("variable %q unbound", cl.to.Term.Var)
		}
		e.Value = v
		return e, nil
	}
	e.Value = cl.to.Term.Const
	return e, nil
}

func refFromSkolem(s struql.SkolemTerm, row struql.Binding) (PageRef, error) {
	ref := PageRef{Func: s.Func, Args: make([]graph.Value, len(s.Args))}
	for i, t := range s.Args {
		if t.IsVar() {
			v, ok := row[t.Var]
			if !ok {
				return ref, fmt.Errorf("variable %q unbound in Skolem term %s", t.Var, s)
			}
			ref.Args[i] = v
		} else {
			ref.Args[i] = t.Const
		}
	}
	return ref, nil
}

// edgeSignature appends e's identity to b: its label, a NUL, then the
// target page's key or the value's Value.AppendKey encoding. Like
// graph.AddEdge, it tells apart values that print alike, such as
// Int(5) and Float(5).
func edgeSignature(b []byte, e *PageEdge) []byte {
	b = append(append(b, e.Label...), 0)
	if e.Page != nil {
		return append(append(b, 'P'), e.Page.Key()...)
	}
	return e.Value.AppendKey(append(b, 'V'))
}

// MaterializeAll walks the whole site breadth-first from the given
// root collection, computing every page. It is the "compute the
// complete site before users browse it" end of the spectrum, built on
// the same per-page queries, and returns the number of pages.
//
// Each breadth-first level materializes in parallel over the
// decomposition's pool (SetWorkers/UsePool; a nil pool uses
// runtime.GOMAXPROCS(0) workers): the frontier is deduplicated before
// dispatch so no page is computed twice, every Page call touches the
// shared cache only under the decomposition's lock, and the next
// frontier is assembled from the results in input order — so the page
// set, the cache contents and any reported error are identical at any
// worker count.
func (d *Decomposition) MaterializeAll(rootCollection string) (int, error) {
	return d.MaterializeAllContext(context.Background(), rootCollection)
}

// MaterializeAllContext is MaterializeAll with cancellation: a
// cancelled context aborts the walk between page computations.
func (d *Decomposition) MaterializeAllContext(ctx context.Context, rootCollection string) (int, error) {
	roots, err := d.Roots(rootCollection)
	if err != nil {
		return 0, err
	}
	visited := map[string]bool{}
	var frontier []PageRef
	schedule := func(refs []PageRef) {
		for _, ref := range refs {
			key := ref.keyWith(d.input)
			if !visited[key] {
				visited[key] = true
				frontier = append(frontier, ref)
			}
		}
	}
	schedule(roots)
	for len(frontier) > 0 {
		level := frontier
		frontier = nil
		computed, err := pool.Map(pool.WithPhase(ctx, "materialize"), d.pl, len(level), func(wctx context.Context, i int) (*PageData, error) {
			return d.PageContext(wctx, level[i])
		})
		if err != nil {
			return 0, err
		}
		for _, pd := range computed {
			for _, e := range pd.Edges {
				if e.Page != nil {
					schedule([]PageRef{*e.Page})
				}
			}
		}
	}
	return len(visited), nil
}
